//! `f90yc` from the outside: what the host-tape lowering refuses is a
//! compile error (exit 1, the variable named, nothing run), and
//! `--emit host` prints the tape.

use std::path::PathBuf;
use std::process::{Command, Output};

fn f90yc(tag: &str, source: &str, args: &[&str]) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("f90yc-cli-{}-{tag}.f90", std::process::id()));
    std::fs::write(&path, source).expect("writes the source");
    let out = Command::new(env!("CARGO_BIN_EXE_f90yc"))
        .args(args)
        .arg(&path)
        .output()
        .expect("f90yc runs");
    std::fs::remove_file(&path).expect("removes the source");
    out
}

#[test]
fn a_shift_dim_outside_the_rank_is_a_compile_error_naming_the_array() {
    let src = "REAL a(8), b(8)\nb = CSHIFT(a, SHIFT=1, DIM=7)\n";
    for args in [&[][..], &["--emit", "host"], &["--target", "cm5"]] {
        let out = f90yc("dim7", src, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is emitted or run");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(
            stderr,
            "f90yc: malformed input to backend: CSHIFT DIM=7 is outside the rank of 'a' (rank 1)\n",
            "{args:?}"
        );
    }
}

#[test]
fn emit_host_prints_the_tape_listing() {
    let src = "REAL a(8), b(8)\nREAL s\nb = CSHIFT(a, SHIFT=1, DIM=1)\ns = SUM(b)\n";
    let out = f90yc("emit", src, &["--emit", "host"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let listing = String::from_utf8(out.stdout).expect("utf-8");
    let exe = f90y_core::Compiler::new(f90y_core::Pipeline::F90y)
        .compile(src)
        .expect("compiles");
    assert_eq!(listing, exe.compiled.host.to_string());
    assert!(listing.starts_with("host tape: "), "{listing}");
    assert!(
        listing.contains("a1 = cshift(a0, dim 1, shift 1)"),
        "{listing}"
    );
    assert!(listing.contains("s0 = sum(a1)"), "{listing}");
}
