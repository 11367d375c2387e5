//! Regenerates the paper's evaluation: one subcommand per figure or
//! table, and `all`, which runs every one in paper order.
//!
//! ```sh
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig7
//! ```
//!
//! Each figure prints its table and checks the paper's claims about it.
//! The run ends with a summary and exits 1 if any claim failed, 2 on an
//! unknown subcommand. `PASTRI_BENCH_SCALE` scales every dataset.

mod evaluation;
mod pattern;
mod tradeoffs;

use std::process::ExitCode;

use bench::Claims;

/// Prints one figure or table and checks the paper's claims about it.
type Figure = fn(&mut Claims);

/// Every figure and table by subcommand name, in paper order.
const FIGURES: [(&str, Figure); 15] = [
    ("fig3", pattern::fig3),
    ("fig4", pattern::fig4),
    ("fig5", pattern::fig5),
    ("fig6", pattern::fig6),
    ("fig7", tradeoffs::fig7),
    ("fig8", evaluation::fig8),
    ("fig9a", evaluation::fig9a),
    ("fig9b", evaluation::fig9b),
    ("fig9cd", evaluation::fig9cd),
    ("fig10", evaluation::fig10),
    ("fig11", evaluation::fig11),
    ("storage", tradeoffs::storage),
    ("hybrid", evaluation::hybrid),
    ("huffman", tradeoffs::huffman),
    ("ablations", tradeoffs::ablations),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> = match &args[..] {
        [arg] => FIGURES
            .iter()
            .filter(|(name, _)| arg == "all" || name == arg)
            .collect(),
        _ => Vec::new(),
    };
    if chosen.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: figures <figure> | all\nfigures: {}",
            names.join(" ")
        );
        return ExitCode::from(2);
    }
    let mut claims = Claims::default();
    for (name, run) in chosen {
        println!("=== {name} ===");
        claims.figure(name);
        run(&mut claims);
        println!();
    }
    if claims.report() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
