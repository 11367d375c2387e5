//! The `figures` binary's exit contract: 0 when every claim of the
//! chosen figure holds, 2 with the list of figures unless given exactly
//! one known name.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    let exe = env!("CARGO_BIN_EXE_figures");
    Command::new(exe).args(args).output().expect("run figures")
}

#[test]
fn a_figure_whose_claims_hold_exits_zero() {
    let out = figures(&["fig3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("claims: 1 checked, 0 failed"), "{stdout}");
}

#[test]
fn an_unknown_figure_exits_nonzero_and_lists_the_figures() {
    for args in [&["fig12"][..], &["fig3", "fig5"], &[]] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("fig3 fig4 fig5"), "{stderr}");
        assert!(stderr.contains("huffman ablations"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs before the name check");
    }
}
