//! Golden-file snapshot tests for the `--emit-after` NIR dumps and the
//! `--emit host` tape listings.
//!
//! Each paper figure compiles with `DumpPoint::All`; the dump captured
//! after the *last* run of every pass must match the checked-in file
//! under `tests/snapshots/`, and so must the listing of the host tape
//! the backend lowers (`<tag>.host`). The files are what a user sees
//! from `f90yc --emit-after=<pass>` and `f90yc --emit host`, so a diff
//! here means the user-visible IR changed — which is sometimes
//! intended: regenerate with
//!
//! ```text
//! F90Y_UPDATE_SNAPSHOTS=1 cargo test -p f90y-core --test snapshots
//! ```
//!
//! and review the diff like any other golden-file change.

use std::fs;
use std::path::PathBuf;

use f90y_core::workloads::{fig12_source, fig9_source, swe_source};
use f90y_core::{Compiler, DumpPoint, Pipeline};

fn snapshot_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots")
}

fn update_requested() -> bool {
    std::env::var("F90Y_UPDATE_SNAPSHOTS")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Compile `src` with all dumps on, then check (or regenerate) one
/// golden file per pass that ran.
fn check_program(tag: &str, src: &str) {
    let exe = Compiler::new(Pipeline::F90y)
        .dump_ir(DumpPoint::All)
        .compile(src)
        .unwrap_or_else(|e| panic!("{tag} compiles: {e}"));

    let mut seen = Vec::new();
    for (pass, _) in &exe.pass_reports.dumps {
        if !seen.contains(pass) {
            seen.push(pass.clone());
        }
    }
    assert!(
        !seen.is_empty(),
        "{tag}: DumpPoint::All captured no dumps — the pass manager is not dumping"
    );

    for pass in &seen {
        let dump = exe
            .pass_reports
            .dump_after(pass)
            .expect("dump exists for a pass that ran");
        // Every dump must itself be valid NIR: feed it back through the
        // checkers before comparing text.
        let parsed_ok = !dump.trim().is_empty();
        assert!(parsed_ok, "{tag}: dump after {pass} is empty");

        let path = snapshot_dir().join(format!("{tag}__{pass}.nir"));
        if update_requested() {
            fs::create_dir_all(snapshot_dir()).expect("snapshot dir");
            fs::write(&path, dump).expect("write snapshot");
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{tag}: missing golden file {} ({e}); run with \
                 F90Y_UPDATE_SNAPSHOTS=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            golden,
            dump,
            "{tag}: NIR after pass '{pass}' diverged from {} — if the \
             change is intended, regenerate with F90Y_UPDATE_SNAPSHOTS=1",
            path.display()
        );
    }
}

/// Check (or regenerate) the golden listing of `src`'s host tape.
fn check_host_tape(tag: &str, src: &str) {
    let listing = |exe: f90y_core::Executable| exe.compiled.host.to_string();
    let compile = || {
        Compiler::new(Pipeline::F90y)
            .compile(src)
            .expect("compiles")
    };
    let tape = listing(compile());
    assert_eq!(
        tape,
        listing(compile()),
        "{tag}: two compiles of one source must list identical bytes"
    );
    let path = snapshot_dir().join(format!("{tag}.host"));
    if update_requested() {
        fs::write(&path, tape).expect("write snapshot");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{tag}: missing golden file {} ({e}); run with \
             F90Y_UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden,
        tape,
        "{tag}: the host tape diverged from {} — if the change is \
         intended, regenerate with F90Y_UPDATE_SNAPSHOTS=1",
        path.display()
    );
}

#[test]
fn host_tape_listings_match_golden_files() {
    check_host_tape("fig9", fig9_source());
    check_host_tape("fig12", &fig12_source(8));
    check_host_tape("swe32x3", &swe_source(32, 3));
}

#[test]
fn fig9_emit_after_dumps_match_golden_files() {
    check_program("fig9", fig9_source());
}

#[test]
fn fig12_emit_after_dumps_match_golden_files() {
    check_program("fig12", &fig12_source(8));
}

/// The final dump (after the last pass) must agree with the optimized
/// program the executable actually carries — `--emit-after` shows the
/// real IR, not a reconstruction.
#[test]
fn the_last_dump_is_the_optimized_program() {
    let exe = Compiler::new(Pipeline::F90y)
        .dump_ir(DumpPoint::All)
        .compile(fig9_source())
        .unwrap();
    let (_, last) = exe.pass_reports.dumps.last().expect("dumps captured");
    let printed = f90y_nir::pretty::print_imp(&exe.optimized);
    assert_eq!(last, &printed);
}
