//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release --bin reproduce -- all
//! cargo run --release --bin reproduce -- table3
//! ```
//! Targets: table1 table2 table3 table4 figure1 figure2 speedup all

use ped_workloads::tables;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(|s| s.as_str()).unwrap_or("all");
    let run = |t: &str| match t {
        "table1" => print!("{}", tables::render_table1()),
        "table2" => print!("{}", tables::render_table2()),
        "table3" => print!("{}", tables::render_table3()),
        "table4" => print!("{}", tables::render_table4()),
        "figure1" => print!("{}", tables::render_figure1()),
        "figure2" => print!("{}", tables::render_figure2()),
        "speedup" => print!("{}", tables::render_speedup(8)),
        "ablation" => print!("{}", tables::render_ablation()),
        other => eprintln!(
            "unknown target '{other}' (table1..4, figure1, figure2, speedup, ablation, all)"
        ),
    };
    if target == "all" {
        for t in [
            "table1", "table2", "table3", "table4", "figure1", "figure2", "speedup", "ablation",
        ] {
            run(t);
            println!();
        }
    } else {
        run(target);
    }
}
