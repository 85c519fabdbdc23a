//! `wadc-perfbench`: the repository's benchmark.
//!
//! ```text
//! wadc-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! wadc-perfbench pin [--workload <name|all>]
//! wadc-perfbench compare <parent-dir> <change-dir>
//! wadc-perfbench spec
//! ```
//!
//! A run prints every metric with its unit and direction, writes its
//! record under `perfbench/out/<workload>/`, and ends its standard output
//! with one JSON result line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wadc_perfbench::pins::{self, Pins};
use wadc_perfbench::provenance::Provenance;
use wadc_perfbench::workload::{self, Workload, DEFAULT_SEED, HOLDOUT_SEED};
use wadc_perfbench::{compare, e2e, spec, traced};

#[global_allocator]
static ALLOC: wadc_bench::alloc::CountingAlloc = wadc_bench::alloc::CountingAlloc;

const USAGE: &str = "usage:
  wadc-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
  wadc-perfbench pin [--workload <name|all>]
  wadc-perfbench compare <parent-dir> <change-dir>
  wadc-perfbench spec";

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Parsed `--flag value` pairs; any flag outside `known` is an error.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn workloads(name: &str) -> Result<Vec<Workload>, String> {
    if name == "all" {
        return Ok(workload::all());
    }
    workload::by_name(name).map(|w| vec![w]).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut names = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        match flag.as_str() {
            "--workload" => names = Some(workloads(&value)?),
            "--seed" => seed = parse(&flag, &value)?,
            "--seconds" => seconds = parse(&flag, &value)?,
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
        }
    }
    let names = names.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let provenance = Provenance::collect(manifest_dir().parent().unwrap_or(manifest_dir()));
    println!(
        "wadc-perfbench: seed {seed} (hold-out seed {HOLDOUT_SEED}), {seconds} s, {}",
        provenance.machine()
    );
    for w in names {
        let pins = Pins::load(&w)?;
        let dir = manifest_dir().join("out").join(w.name);
        let outcome = if trace {
            let t = traced::run(&w, seed, seconds, &pins);
            // The Chrome traces are overwritten by every traced pass of the
            // workload, so repeated runs do not pile up disk.
            write(
                &dir.join("spans.trace.json"),
                &t.spans.chrome_trace().to_string_compact(),
            )?;
            if let Some(run) = &t.first_run {
                write(&dir.join("run.trace.json"), &run.to_string_compact())?;
            }
            t.outcome
        } else {
            e2e::run(&w, seed, seconds, &pins)
        };
        print!("{}", outcome.table());
        let record = dir.join(format!("seed{seed}-trace{}.json", trace as u8));
        write(
            &record,
            &outcome.record(&provenance, seconds).to_string_pretty(),
        )?;
        println!("{}", outcome.result_line());
    }
    Ok(())
}

fn pin(args: &[String]) -> Result<(), String> {
    let mut names = workload::all();
    for (_, value) in flags(args, &["--workload"])? {
        names = workloads(&value)?;
    }
    for w in names {
        let path: PathBuf = pins::path(w.name);
        write(&path, &Pins::compute(&w).render(&w))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        Some("pin") => pin(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2])).map(|r| print!("{r}"))
        }
        Some(_) => run(&args),
        None => Err("no arguments".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wadc-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
