//! Regenerate the paper's figures and tables.
//!
//! Usage: `paper_figures [<experiment-id>|all]` or `paper_figures --write-dir DIR`
//! (defaults to `all`). See DESIGN.md §5 for the experiment index.
//!
//! `paper_figures bench-decomp [--quick] [--out PATH]` prices the searched
//! unbalanced coll decomposition against the balanced split across machine
//! models and writes the JSON artifact (default `BENCH_decomp.json`).

fn out_path_arg(args: &[String], default: &str) -> String {
    match args.iter().position(|a| a == "--out") {
        Some(pos) => match args.get(pos + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("--out needs a path");
                std::process::exit(2);
            }
        },
        None => default.to_string(),
    }
}

fn bench_decomp(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = out_path_arg(args, "BENCH_decomp.json");
    let cfg = if quick {
        xg_bench::DecompBenchConfig::quick()
    } else {
        xg_bench::DecompBenchConfig::full()
    };
    let results = xg_bench::run_decomp_bench(&cfg);
    print!("{}", xg_bench::decomp_bench_report(&results));
    std::fs::write(&out_path, xg_bench::decomp_bench_json(&results))
        .expect("write bench json");
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-decomp") {
        bench_decomp(&args[1..]);
        return;
    }
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
