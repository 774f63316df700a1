//! What the backend refuses when it lowers the host program is a typed
//! `Compile` failure of the request — before admission, before any run.

use std::sync::mpsc::channel;

use f90y_obs::json::Json;
use f90y_serve::engine::{Engine, ServeConfig};
use f90y_serve::protocol::{ErrorKind, Request, Response};

#[test]
fn a_shift_dim_outside_the_rank_fails_the_request_at_compile_time() {
    let engine = Engine::new(ServeConfig::deterministic());
    let (tx, rx) = channel();
    let src = Json::Str("REAL a(8), b(8)\nb = EOSHIFT(a, SHIFT=1, DIM=3)\n".into());
    for (id, kind) in [(1, "run"), (2, "compile")] {
        let line =
            format!(r#"{{"id":{id},"tenant":"t","kind":"{kind}","source":{src},"nodes":16}}"#);
        engine
            .submit(Request::parse(&line).expect("parses"), tx.clone())
            .expect("room");
    }
    engine.drain();
    drop(tx);
    let answers: Vec<Response> = rx.iter().collect();
    assert_eq!(answers.len(), 2);
    for answer in answers {
        match answer {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Compile, "{e:?}");
                assert!(
                    e.message
                        .ends_with("EOSHIFT DIM=3 is outside the rank of 'a' (rank 1)"),
                    "{e:?}"
                );
            }
            other => panic!("expected a Compile failure, got {other:?}"),
        }
    }
}
