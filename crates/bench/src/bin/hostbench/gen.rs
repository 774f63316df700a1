//! Seeded input generators. The program under test receives only the
//! text produced here; the same seed always yields the same bytes.
//!
//! Seeds perturb literals, shift directions and statement order — never
//! array sizes, step counts or the multiset of statements — so the
//! amount of work stays the same from seed to seed and timings of
//! different seeds are comparable.

use f90y_core::workloads;

/// SplitMix64: small, seedable, and good enough to shuffle statements.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `+1` or `-1`.
    pub fn sign(&mut self) -> i64 {
        if self.below(2) == 0 {
            1
        } else {
            -1
        }
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The paper's SWE benchmark (`workloads::swe_source`) with the
/// initial-condition literals perturbed by the seed: the base height
/// and the modulus of the height ripple. Nothing that sizes the work
/// changes.
pub fn swe_program(seed: u64, n: usize, steps: usize) -> String {
    let mut rng = Rng::new(seed ^ 0x5357_4500);
    let base = 2000 + rng.below(64);
    let ripple = 13 + 2 * rng.below(4); // 13, 15, 17, 19
    let src = workloads::swe_source(n, steps);
    let perturbed = src.replace(
        "2000.0 + 10*MOD(i*j, 17)",
        &format!("{base}.0 + 10*MOD(i*j, {ripple})"),
    );
    assert_ne!(
        src, perturbed,
        "swe_source no longer has the literals this generator perturbs"
    );
    perturbed
}

/// The communication-bound counterpart of SWE: a small grid stepped
/// many times, every step a chain of circular and end-off shifts, two
/// reductions, a strided-section assignment and a serial `DO` that
/// reads the diagonal element by element and writes a vector the same
/// way. Tiny arrays, so per-call cost is everything and the kernel
/// loop nothing.
///
/// The seed picks the shift distances (circular: ±1..3 on each axis;
/// end-off: ±2, sign only, because an end-off distance changes how many
/// halo messages the MIMD engine sends) and the initial-condition
/// literals. Values stay in `[0.125, 1.25]` for any step count: each
/// step renormalises by `MAXVAL`, so nothing decays into denormals or
/// overflows however long the run.
pub fn comm_program(seed: u64, n: usize, steps: usize) -> String {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "comm_program wants an even n >= 4"
    );
    let mut rng = Rng::new(seed ^ 0x434f_4d4d);
    let k1 = rng.sign() * (1 + rng.below(3) as i64);
    let k2 = rng.sign() * (1 + rng.below(3) as i64);
    let k3 = rng.sign() * 2;
    let p = 5 + 2 * rng.below(4); // 5, 7, 9, 11
    let q = 3 + rng.below(4);
    let odd_hi = n - 1;
    format!(
        "
PROGRAM commmix
REAL a({n},{n}), b({n},{n}), c({n},{n})
REAL d({n})
REAL s, m
FORALL (i=1:{n}, j=1:{n}) a(i,j) = MOD(i*{p} + j*{q}, 19) + 0.5
c = 0.25
DO 10 step = 1, {steps}
  b = CSHIFT(CSHIFT(a, DIM=1, SHIFT={k1}), DIM=2, SHIFT={k2}) + EOSHIFT(a, DIM=1, SHIFT={k3})
  s = SUM(b)
  m = MAXVAL(b)
  c(1:{odd_hi}:2,:) = b(1:{odd_hi}:2,:)
  DO 20 i = 1, {n}
    d(i) = c(i,i)
20 CONTINUE
  a = b/m + 0.125*s/(s + 1.0)
10 CONTINUE
END PROGRAM commmix
"
    )
}

/// One generated workload program split into the statements before its
/// time-step loop and the statements of the loop body. A statement is
/// one logical line: `&` continuations and `WHERE … END WHERE` blocks
/// stay together.
struct Parts {
    prologue: Vec<String>,
    body: Vec<String>,
}

fn split_program(src: &str) -> Parts {
    let mut prologue = Vec::new();
    let mut body = Vec::new();
    let mut in_loop = false;
    let mut pending = String::new();
    let mut in_where_block = false;
    for line in src.lines() {
        let trimmed = line.trim();
        let upper = trimmed.to_ascii_uppercase();
        if pending.is_empty() {
            let skip = trimmed.is_empty()
                || trimmed.starts_with('!')
                || upper.starts_with("PROGRAM")
                || upper.starts_with("END PROGRAM")
                || upper.starts_with("REAL ")
                || upper.starts_with("INTEGER ");
            if skip {
                continue;
            }
            if upper.starts_with("DO ") {
                in_loop = true;
                continue;
            }
            if upper.ends_with("CONTINUE") {
                in_loop = false;
                continue;
            }
        }
        if !pending.is_empty() {
            pending.push('\n');
        }
        pending.push_str(trimmed);
        if upper.starts_with("WHERE") && upper.ends_with(')') {
            in_where_block = true;
        }
        if in_where_block {
            if upper.starts_with("END WHERE") {
                in_where_block = false;
            } else {
                continue;
            }
        } else if trimmed.ends_with('&') {
            continue;
        }
        let stmt = std::mem::take(&mut pending);
        if in_loop {
            body.push(stmt);
        } else {
            prologue.push(stmt);
        }
    }
    assert!(pending.is_empty(), "unterminated statement: {pending}");
    Parts { prologue, body }
}

/// Grid extent of every array in a generated compile workload.
pub const GEN_GRID: usize = 16;

/// A large straight-line program for the compile workload: `count`
/// whole-array statements over one shared declaration block at
/// 16×16. The statements are the loop bodies of `swe_source`,
/// `heat_source`, `life_source` and `redblack_source`, cycled until
/// there are `count` of them (so every seed compiles the same multiset)
/// and then shuffled by the seed. All four bodies are contractive or
/// near-identity updates, so any order stays finite once every array a
/// statement reads starts out initialised.
pub fn gen_program(seed: u64, count: usize) -> String {
    let n = GEN_GRID;
    let parts = [
        split_program(&workloads::swe_source(n, 1)),
        split_program(&workloads::heat_source(n, 1)),
        split_program(&workloads::life_source(n, 1)),
        split_program(&workloads::redblack_source(n, 1)),
    ];
    let cycle: Vec<&String> = parts.iter().flat_map(|p| &p.body).collect();
    assert!(!cycle.is_empty(), "the workload sources have loop bodies");
    let mut stmts: Vec<&String> = cycle.iter().copied().cycle().take(count).collect();
    Rng::new(seed ^ 0x4745_4e00).shuffle(&mut stmts);

    let mut out = format!(
        "
PROGRAM generated
REAL u({n},{n}), v({n},{n}), p({n},{n})
REAL unew({n},{n}), vnew({n},{n}), pnew({n},{n})
REAL uold({n},{n}), vold({n},{n}), pold({n},{n})
REAL cu({n},{n}), cv({n},{n}), z({n},{n}), h({n},{n})
REAL t({n},{n}), tnew({n},{n}), rhs({n},{n}), nb({n},{n})
INTEGER g({n},{n}), neigh({n},{n})
REAL fsdx, fsdy, tdts8, tdtsdx, tdtsdy, alpha, kappa
"
    );
    for p in &parts {
        for stmt in &p.prologue {
            out.push_str(stmt);
            out.push('\n');
        }
    }
    // In their own loops the "new" time levels are written before they
    // are read. Shuffled, `p = pnew` can come first, and a zero `p`
    // is a zero divisor in the vorticity statement.
    out.push_str("unew = u\nvnew = v\npnew = p\ntnew = t\n");
    for stmt in stmts {
        out.push_str(stmt);
        out.push('\n');
    }
    out.push_str("END PROGRAM generated\n");
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Vary one numeric literal of `src` by `k`, so that sources varied by
/// different `k` differ (and so do their compile-cache keys) while the
/// program stays valid and costs the same to compile and run.
///
/// The first real literal (`digits.digits`) gets `k` appended as extra
/// fractional digits — a change in the ninth significant figure or
/// beyond. A source with no real literal has its first integer
/// *coefficient* (a literal next to `*`) increased by `k` instead; array
/// bounds, `DIM=`/`SHIFT=` arguments and loop limits are never next to
/// `*`, so sizes and step counts cannot change. `None` when the source
/// has neither.
pub fn vary_literal(src: &str, k: u64) -> Option<String> {
    let b = src.as_bytes();
    // Every maximal digit run that is not part of an identifier.
    let mut runs = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !is_ident_byte(b[i - 1])) {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    // A real literal: run '.' run.
    for w in runs.windows(2) {
        let ((s0, e0), (s1, e1)) = (w[0], w[1]);
        if e0 + 1 == s1 && b[e0] == b'.' && (s0 == 0 || b[s0 - 1] != b'.') {
            return Some(format!("{}{k:07}{}", &src[..e1], &src[e1..]));
        }
    }
    // An integer coefficient: a run with `*` on either side.
    for &(s, e) in &runs {
        let before = src[..s].trim_end().as_bytes().last().copied();
        let after = src[e..].trim_start().as_bytes().first().copied();
        let is_real = before == Some(b'.') || after == Some(b'.');
        if !is_real && (before == Some(b'*') || after == Some(b'*')) {
            let value: u64 = src[s..e].parse().ok()?;
            return Some(format!("{}{}{}", &src[..s], value + k, &src[e..]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_seeds_differ() {
        let gens: [fn(u64) -> String; 3] = [
            |s| swe_program(s, 8, 1),
            |s| comm_program(s, 8, 3),
            |s| gen_program(s, 30),
        ];
        for gen in gens {
            assert_eq!(gen(1), gen(1));
            assert_ne!(gen(1), gen(2));
        }
    }

    #[test]
    fn generated_program_is_a_shuffle_of_a_fixed_multiset() {
        let lines = |s: u64| {
            let mut v: Vec<String> = gen_program(s, 46).lines().map(str::to_string).collect();
            v.sort();
            v
        };
        assert_eq!(lines(1), lines(2));
    }

    #[test]
    fn split_keeps_continuations_and_where_blocks_together() {
        let life = split_program(&workloads::life_source(8, 1));
        assert_eq!(life.body.len(), 4, "{:?}", life.body);
        assert!(life.body[0].starts_with("neigh =") && life.body[0].contains('\n'));
        assert!(life.body[1].starts_with("WHERE") && life.body[1].ends_with("END WHERE"));
        let swe = split_program(&workloads::swe_source(8, 1));
        assert_eq!(swe.body.len(), 13);
        assert!(swe.prologue.iter().any(|s| s == "uold = u"));
    }

    #[test]
    fn vary_literal_changes_a_real_literal_first() {
        let v = vary_literal("REAL A(8)\nA = A + 0.25*2\n", 42).unwrap();
        assert_eq!(v, "REAL A(8)\nA = A + 0.250000042*2\n");
    }

    #[test]
    fn vary_literal_falls_back_to_an_integer_coefficient() {
        let v = vary_literal(
            "INTEGER A(8,8)\nFORALL (i=1:8, j=1:8) A(i,j) = 10*i + j\n",
            5,
        )
        .unwrap();
        assert!(v.contains("15*i + j") && v.contains("A(8,8)") && v.contains("i=1:8"));
        let v = vary_literal("INTEGER G(4)\nG = MOD(G*7, 3)\n", 1).unwrap();
        assert!(v.contains("G*8"));
        assert_eq!(
            vary_literal("REAL A(8)\nA = CSHIFT(A, DIM=1, SHIFT=1)\n", 3),
            None
        );
    }

    #[test]
    fn vary_literal_is_injective_in_k() {
        let src = comm_program(1, 8, 2);
        let a = vary_literal(&src, 1).unwrap();
        let b = vary_literal(&src, 2).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, src);
    }
}
