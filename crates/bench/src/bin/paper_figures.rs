//! Regenerate the paper's figures and tables.
//!
//! Usage: `paper_figures [<experiment-id>|all]` or `paper_figures --write-dir DIR`
//! (defaults to `all`). See DESIGN.md §5 for the experiment index.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Optional: --write-dir DIR saves each experiment to DIR/<id>.txt.
    if let Some(pos) = args.iter().position(|a| a == "--write-dir") {
        let Some(dir) = args.get(pos + 1) else {
            eprintln!("--write-dir needs a directory");
            std::process::exit(2);
        };
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create output dir");
        for (id, f) in xg_bench::experiments() {
            let path = dir.join(format!("{id}.txt"));
            std::fs::write(&path, f()).expect("write experiment output");
            println!("wrote {}", path.display());
        }
        return;
    }
    let arg = args.first().cloned().unwrap_or_else(|| "all".to_string());
    if arg == "all" {
        print!("{}", xg_bench::run_all());
        return;
    }
    match xg_bench::experiments().into_iter().find(|(n, _)| *n == arg) {
        Some((_, f)) => print!("{}", f()),
        None => {
            eprintln!(
                "unknown experiment '{arg}'; available: all, {}",
                xg_bench::experiments()
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
}
