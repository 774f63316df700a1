//! In-memory span recorder for the traced pass, written out once at
//! exit as a Chrome trace (`chrome://tracing`, Perfetto).
//!
//! A span is a name, a start, an end, the span that caused it and the
//! id of the operation (one compile, one run, one request) it belongs
//! to. Spans nest by call structure: [`Recorder::span`] opens a child
//! of whatever span is open.

use std::time::Instant;

use f90y_obs::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    pub epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Begin a new operation: spans opened from here on carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Run `f` inside a span named `name`, a child of the open span.
    /// Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Record a finished span timed elsewhere (against the same epoch)
    /// under `parent`. Returns its index.
    pub fn add_under(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn millis_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// The whole recording as a Chrome trace: one complete (`"X"`)
    /// event per span, microsecond timestamps, one track per operation;
    /// `args` carries the span's index, its parent's and anything in
    /// `notes` (`(span index, key, value)`).
    pub fn to_chrome_json(&self, workload: &str, notes: &[(usize, &str, f64)]) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("span".to_string(), Json::Num(i as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ];
                for (index, key, value) in notes {
                    if *index == i {
                        args.push((key.to_string(), Json::Num(*value)));
                    }
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.nanos() as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(s.op as f64)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            (
                "otherData".into(),
                Json::Obj(vec![("workload".into(), Json::Str(workload.into()))]),
            ),
            ("traceEvents".into(), Json::Arr(events)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_structure_and_carry_the_operation_id() {
        let mut rec = Recorder::new();
        rec.begin_op();
        let ((), outer) = rec.span("outer", |rec| {
            rec.span("inner", |_| std::hint::black_box(()));
        });
        rec.begin_op();
        let at = rec.now_ns();
        rec.add_under(Some(1), "timed elsewhere", at, at + 10);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!([spans[0].op, spans[1].op, spans[2].op], [1, 1, 2]);
        assert_eq!(spans[0].nanos(), outer);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.millis_of("timed elsewhere"), [10.0 / 1e6]);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut rec = Recorder::new();
        rec.begin_op();
        rec.span("a \"quoted\" name", |rec| rec.span("b", |_| ()).0);
        let text = rec.to_chrome_json("toy", &[(1, "calls", 3.0)]);
        let doc = f90y_obs::json::parse(&text).unwrap();
        let Json::Obj(fields) = doc else {
            panic!("not an object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let Json::Arr(events) = events else {
            panic!("not an array")
        };
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"calls\":3"));
    }
}
