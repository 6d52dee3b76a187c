//! `stepbench`: steady-state RK-step benchmark with a per-layer account.
//! See `benchmark/README.md` for the metric and workload definitions.
//!
//! ```text
//! stepbench [--workload W] [--trace 0|1] [--seed S] [--seconds T] [--out DIR]
//! stepbench --smoke | --write-golden | --compare A.json B.json
//! ```
//!
//! With `--workload` and `--trace` both given (the form `BENCHMARK.json`'s
//! driver uses) the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and the pass's `metrics`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "stepbench reads /proc and calls clock_gettime with the 64-bit Linux timespec layout"
);

mod alloc;
mod decl;
mod json;
mod procfs;
mod rep;
mod replay;
mod report;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use decl::{
    Workload, DEFAULT_SEED, END_TO_END, MIN_STEPS, N, PER_LAYER, REPS, WARMUP_STEPS, WORKLOADS,
};
use json::Json;
use rep::RepCfg;
use report::{RepResult, TracedReps, WorkloadReport};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Serial f64 spectrum at step 13 for the default seed, written by
/// `--write-golden`. Pins the physics across commits.
const GOLDEN: &str = include_str!("../golden/spectrum_n96_seed2019_step13.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/spectrum_n96_seed2019_step13.json"
);
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One invocation's plan: which workloads, which passes, how long.
struct Plan {
    workloads: Vec<&'static Workload>,
    measured: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
    n: usize,
    warmup: usize,
    min_steps: usize,
    reps: usize,
    out: PathBuf,
}

impl Plan {
    fn rep_cfg(&self, workload: &'static Workload, traced: bool, budget_s: f64) -> RepCfg {
        RepCfg {
            workload,
            n: self.n,
            seed: self.seed,
            warmup: self.warmup,
            min_steps: self.min_steps,
            budget_s,
            traced,
        }
    }

    fn check_step(&self) -> usize {
        self.warmup + self.min_steps
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: stepbench [--workload {}] [--trace 0|1] [--seed S] [--seconds T] [--out DIR]\n       \
         stepbench --smoke | --write-golden | --compare A.json B.json",
        names.join("|")
    )
}

/// Run one repetition in a child process of this executable and parse the
/// record it prints. The parent waits for the child before returning.
fn spawn_rep(cfg: &RepCfg) -> RepResult {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            "--workload",
            cfg.workload.name,
            "--seed",
            &cfg.seed.to_string(),
            "--n",
            &cfg.n.to_string(),
            "--warmup",
            &cfg.warmup.to_string(),
            "--min-steps",
            &cfg.min_steps.to_string(),
            "--seconds",
            &cfg.budget_s.to_string(),
            "--trace",
            if cfg.traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} child: {}", cfg.workload.name, output.status));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
}

fn child_main(cfg: &RepCfg, t_start: Instant) {
    let mut record = rep::run(cfg, t_start);
    if cfg.traced {
        let np = record.num("np") as usize;
        if let Json::Obj(pairs) = &mut record {
            pairs.push(("replay".to_owned(), replay::run(cfg, np.max(1))));
        }
    }
    println!("{}", record.encode());
}

fn spectrum_file(n: usize, seed: u64, step: usize, spectrum: &[f64]) -> Json {
    Json::obj([
        ("n", Json::Num(n as f64)),
        ("seed", Json::Num(seed as f64)),
        ("step", Json::Num(step as f64)),
        ("spectrum", Json::nums(spectrum)),
    ])
}

fn read_spectrum(text: &str) -> Result<Vec<f64>, String> {
    let v = Json::parse(text)?.num_vec("spectrum");
    if v.is_empty() {
        return Err("no `spectrum` array".into());
    }
    Ok(v)
}

/// The f64 spectrum the repetitions are checked against. Default seed and
/// shape: the committed golden (a `SlabFftCpu<f64>` P = 1 run). Any other
/// seed: the same f64 solver at P = 2 (both cores, so it costs half the
/// wall), computed once outside all timing and cached under `--out`; the
/// golden pins that P = 2 run to the serial one within 1e-9.
fn reference(plan: &Plan) -> Result<Vec<f64>, String> {
    let standard = plan.n == N && plan.warmup == WARMUP_STEPS && plan.min_steps == MIN_STEPS;
    if standard && plan.seed == DEFAULT_SEED {
        return read_spectrum(GOLDEN).map_err(|e| format!("golden: {e}"));
    }
    let path = plan.out.join(format!(
        "ref_n{}_seed{}_step{}.json",
        plan.n,
        plan.seed,
        plan.check_step()
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(v) = read_spectrum(&text) {
            return Ok(v);
        }
    }
    let slab = decl::workload("slab_cpu").expect("declared");
    let record = spawn_rep(&plan.rep_cfg(slab, false, 0.0))?;
    let spectrum = record.num_vec("spectrum");
    if spectrum.is_empty() || record.num("failed") > 0.0 {
        return Err("reference run failed".into());
    }
    let file = spectrum_file(plan.n, plan.seed, plan.check_step(), &spectrum);
    write_file(&path, &file.pretty())?;
    Ok(spectrum)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run the plan's passes and fold the children's records into one report
/// per workload.
fn run(plan: &Plan) -> Result<Vec<WorkloadReport>, String> {
    let reference = reference(plan)?;
    let nw = plan.workloads.len();

    // Measured pass: repetitions interleaved round-robin across workloads,
    // so slow drift of the box lands on all of them alike.
    let mut measured: Vec<Vec<RepResult>> = vec![Vec::new(); nw];
    if plan.measured {
        let budget_s = plan.seconds / plan.reps as f64;
        for rep in 0..plan.reps {
            for (i, w) in plan.workloads.iter().enumerate() {
                eprintln!(
                    "[stepbench] measured {} rep {}/{}",
                    w.name,
                    rep + 1,
                    plan.reps
                );
                measured[i].push(spawn_rep(&plan.rep_cfg(w, false, budget_s)));
            }
        }
    }

    // Traced pass: one untraced and one traced repetition of exactly
    // `min_steps` timed steps each; their difference is the tracing
    // overhead. The armed workload adds an untraced `slab_cpu` repetition
    // for the armed/unarmed ratio.
    let mut traced: Vec<Vec<RepResult>> = vec![Vec::new(); nw];
    if plan.traced {
        for (i, w) in plan.workloads.iter().enumerate() {
            eprintln!("[stepbench] traced {}", w.name);
            traced[i].push(spawn_rep(&plan.rep_cfg(w, false, 0.0)));
            traced[i].push(spawn_rep(&plan.rep_cfg(w, true, 0.0)));
            if w.armed() {
                let unarmed = decl::workload("slab_cpu").expect("declared");
                traced[i].push(spawn_rep(&plan.rep_cfg(unarmed, false, 0.0)));
            }
        }
    }

    let planned = plan.check_step() as u64;
    let mut reports = Vec::new();
    for (i, w) in plan.workloads.iter().enumerate() {
        for failure in measured[i]
            .iter()
            .chain(&traced[i])
            .filter_map(|r| r.as_ref().err())
        {
            eprintln!("[stepbench] {failure}");
        }
        // The unarmed companion is a `slab_cpu` run; it counts towards this
        // workload's attempted and failed steps like the others.
        let all: Vec<RepResult> = measured[i].iter().chain(&traced[i]).cloned().collect();
        let outcome = report::outcome(w, &all, planned, &reference);

        let measured_metrics = if plan.measured {
            if measured[i].iter().all(Result::is_err) {
                return Err(format!("{}: every measured repetition failed", w.name));
            }
            Some(report::end_to_end(plan.n, &measured[i]))
        } else {
            None
        };
        let mut np = measured[i]
            .iter()
            .flatten()
            .map(|r| r.num("np") as usize)
            .next();
        let per_layer = if plan.traced {
            let get = |k: usize| traced[i].get(k).and_then(|r| r.as_ref().ok());
            let (Some(plain), Some(tr)) = (get(0), get(1)) else {
                return Err(format!("{}: a traced-pass repetition failed", w.name));
            };
            np = Some(tr.num("np") as usize);
            write_trace(&plan.out, w, tr)?;
            report::per_layer(
                w,
                plan.n,
                &TracedReps {
                    plain,
                    traced: tr,
                    unarmed: get(2),
                },
            )
        } else {
            Vec::new()
        };
        reports.push(WorkloadReport {
            workload: w,
            n: plan.n,
            np: np.unwrap_or(1),
            outcome,
            measured: measured_metrics,
            per_layer,
        });
    }
    Ok(reports)
}

/// `DIR/trace_<workload>.jsonl`: one span per line.
fn write_trace(out: &Path, w: &Workload, traced: &Json) -> Result<(), String> {
    let mut text = String::new();
    for span in traced.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        text.push_str(&span.encode());
        text.push('\n');
    }
    write_file(&out.join(format!("trace_{}.jsonl", w.name)), &text)
}

fn results_json(plan: &Plan, env: Json, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("schema", Json::str("stepbench-results-1")),
        ("env", env),
        (
            "config",
            Json::obj([
                ("seed", Json::Num(plan.seed as f64)),
                ("n", Json::Num(plan.n as f64)),
                ("seconds", Json::Num(plan.seconds)),
                ("reps", Json::Num(plan.reps as f64)),
                ("warmup_steps", Json::Num(plan.warmup as f64)),
                ("min_timed_steps", Json::Num(plan.min_steps as f64)),
                ("spectrum_step", Json::Num(plan.check_step() as f64)),
                ("measured_pass", Json::Bool(plan.measured)),
                ("traced_pass", Json::Bool(plan.traced)),
            ]),
        ),
        (
            "workloads",
            Json::obj(reports.iter().map(|r| (r.workload.name, r.to_json()))),
        ),
        (
            "derived",
            Json::obj(
                report::derived(reports)
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        ),
    ])
}

fn print_report(plan: &Plan, env: &Json, reports: &[WorkloadReport]) {
    let s = |k: &str| {
        env.get(k)
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    println!(
        "stepbench  seed={} N={} seconds={} reps={} warm-up={} min timed steps={}",
        plan.seed, plan.n, plan.seconds, plan.reps, plan.warmup, plan.min_steps
    );
    println!(
        "box: {} x {}  L2 {}  L3 {}  {}  commit {}  profile {}",
        env.num("nproc"),
        s("cpu_model"),
        s("l2"),
        s("l3"),
        s("rustc"),
        s("git_commit"),
        s("build_profile"),
    );
    println!(
        "the shared L3 holds every array here: no number below is a DRAM-bandwidth measurement"
    );
    for r in reports {
        r.print();
    }
    let derived = report::derived(reports);
    if !derived.is_empty() {
        println!("\n== derived (reported, not gated) ==");
        for (label, v) in derived {
            println!("  {label:<72} {v:>8.4}");
        }
    }
}

/// The driver's last line: `correct`, `attempted`, `failed`, `metrics`.
fn contract_line(r: &WorkloadReport, traced: bool) -> Json {
    let metrics = if traced {
        Json::obj(PER_LAYER.iter().zip(&r.per_layer).map(|(m, &(name, v))| {
            (
                name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.1))]),
            )
        }))
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .zip(r.end_to_end())
                .map(|(m, &(name, v))| {
                    (
                        name,
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                    )
                }),
        )
    };
    Json::obj([
        ("correct", Json::Bool(r.outcome.correct(r.workload))),
        ("attempted", Json::Num(r.outcome.attempted as f64)),
        ("failed", Json::Num(r.outcome.failed as f64)),
        ("metrics", metrics),
    ])
}

/// `BENCHMARK.json` declares exactly the workloads and metrics of `decl`,
/// with the same units, directions and bounds.
fn check_declared(b: &Json) -> Result<(), String> {
    let list = |key: &str| -> Result<&[Json], String> {
        b.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
    };
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    let same = |what: &str, declared: Vec<String>, code: Vec<String>| {
        if declared == code {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json {what} differ from the binary's:\n  json: {declared:?}\n  code: {code:?}"
            ))
        }
    };
    same(
        "workloads",
        list("workloads")?
            .iter()
            .map(|w| format!("{}: {}", field(w, "name"), field(w, "why")))
            .collect(),
        WORKLOADS
            .iter()
            .map(|w| format!("{}: {}", w.name, w.why))
            .collect(),
    )?;
    same(
        "end_to_end metrics",
        list("end_to_end")?
            .iter()
            .map(|m| {
                format!(
                    "{} {} {} {}",
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.num("bound")
                )
            })
            .collect(),
        END_TO_END
            .iter()
            .map(|m| format!("{} {} {} {}", m.name, m.unit, m.better.as_str(), m.bound))
            .collect(),
    )?;
    same(
        "per_layer metrics",
        list("per_layer")?
            .iter()
            .map(|m| {
                format!(
                    "{} {} {}",
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better")
                )
            })
            .collect(),
        PER_LAYER
            .iter()
            .map(|m| format!("{} {} {}", m.0, m.1, m.2.as_str()))
            .collect(),
    )
}

/// `--smoke`: every workload and both passes at toy size, then check that
/// what was emitted is exactly what is declared and that it is all finite.
fn smoke(out: PathBuf) -> Result<(), String> {
    let t0 = Instant::now();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    check_declared(&Json::parse(&text)?)?;
    let plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        measured: true,
        traced: true,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        n: 24,
        warmup: 1,
        min_steps: 3,
        reps: 1,
        out: out.join("smoke"),
    };
    let reports = run(&plan)?;
    for r in &reports {
        let names = |m: &[(&'static str, f64)]| m.iter().map(|m| m.0).collect::<Vec<_>>();
        if names(r.end_to_end()) != END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
            || names(&r.per_layer) != PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        {
            return Err(format!(
                "{}: emitted metric names differ from the declared",
                r.workload.name
            ));
        }
        for &(name, v) in r.end_to_end().iter().chain(&r.per_layer) {
            if !v.is_finite() {
                return Err(format!("{}: {name} = {v} is not finite", r.workload.name));
            }
        }
        if !r.outcome.correct(r.workload) {
            return Err(format!("{}: incorrect: {:?}", r.workload.name, r.outcome));
        }
        // The line the driver parses carries the same names.
        for traced in [false, true] {
            let line = contract_line(r, traced);
            let declared = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            let emitted = line
                .get("metrics")
                .and_then(Json::as_obj)
                .map_or(0, <[_]>::len);
            if emitted != declared {
                return Err(format!(
                    "{}: {emitted} metrics on the result line, {declared} declared",
                    r.workload.name
                ));
            }
        }
    }
    write_file(
        &plan.out.join("results.json"),
        &results_json(&plan, procfs::environment(), &reports).pretty(),
    )?;
    println!(
        "smoke ok: {} workloads x ({} end-to-end + {} per-layer metrics) in {:.1} s",
        reports.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn write_golden() -> Result<(), String> {
    let serial = decl::workload("serial_cpu").expect("declared");
    let cfg = RepCfg {
        workload: serial,
        n: N,
        seed: DEFAULT_SEED,
        warmup: WARMUP_STEPS,
        min_steps: MIN_STEPS,
        budget_s: 0.0,
        traced: false,
    };
    let record = spawn_rep(&cfg)?;
    let spectrum = record.num_vec("spectrum");
    if spectrum.is_empty() || record.num("failed") > 0.0 {
        return Err("golden run failed".into());
    }
    let file = spectrum_file(N, DEFAULT_SEED, WARMUP_STEPS + MIN_STEPS, &spectrum);
    write_file(Path::new(GOLDEN_PATH), &file.pretty())?;
    println!(
        "wrote {GOLDEN_PATH} ({} shells); rebuild to embed it",
        spectrum.len()
    );
    Ok(())
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (text, ok) = report::compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(ok)
}

struct Args {
    flags: Vec<String>,
}

impl Args {
    /// Value of `--name V`, removed from the list.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.flags.iter().position(|f| f == name) else {
            return Ok(None);
        };
        if i + 1 >= self.flags.len() {
            return Err(format!("{name} needs a value"));
        }
        self.flags.remove(i);
        Ok(Some(self.flags.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{name}: bad value `{v}`"))
            })
            .transpose()
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.flags.len();
        self.flags.retain(|f| f != name);
        self.flags.len() != before
    }
}

fn real_main(t_start: Instant) -> Result<bool, String> {
    let mut args = Args {
        flags: std::env::args().skip(1).collect(),
    };
    if args.flag("--help") || args.flag("-h") {
        println!("{}", usage());
        return Ok(true);
    }
    if args.flag("--compare") {
        let [a, b] = args.flags.as_slice() else {
            return Err(usage());
        };
        return compare(a, b);
    }
    let out = args
        .value("--out")?
        .map_or_else(|| PathBuf::from(DEFAULT_OUT), PathBuf::from);
    if args.flag("--smoke") {
        return smoke(out).map(|()| true);
    }
    if args.flag("--write-golden") {
        return write_golden().map(|()| true);
    }

    let workload = match args.value("--workload")? {
        Some(name) => Some(
            decl::workload(&name)
                .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?,
        ),
        None => None,
    };
    let trace = match args.value("--trace")?.as_deref() {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(decl::DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds: `{seconds}` is not a duration"));
    }

    if args.flag("--child") {
        let cfg = RepCfg {
            workload: workload.ok_or("--child needs --workload")?,
            n: args.parsed("--n")?.ok_or("--child needs --n")?,
            seed,
            warmup: args.parsed("--warmup")?.ok_or("--child needs --warmup")?,
            min_steps: args
                .parsed("--min-steps")?
                .ok_or("--child needs --min-steps")?,
            budget_s: seconds,
            traced: trace == Some(true),
        };
        child_main(&cfg, t_start);
        return Ok(true);
    }
    if !args.flags.is_empty() {
        return Err(format!("unknown arguments {:?}\n{}", args.flags, usage()));
    }

    let plan = Plan {
        workloads: workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]),
        measured: trace != Some(true),
        traced: trace != Some(false),
        seed,
        seconds,
        n: N,
        warmup: WARMUP_STEPS,
        min_steps: MIN_STEPS,
        reps: REPS,
        out,
    };
    let reports = run(&plan)?;
    let env = procfs::environment();
    print_report(&plan, &env, &reports);
    let results = plan.out.join("results.json");
    write_file(&results, &results_json(&plan, env, &reports).pretty())?;
    println!("\nwrote {}", results.display());
    if let (Some(_), Some(traced), [r]) = (workload, trace, reports.as_slice()) {
        println!("{}", contract_line(r, traced).encode());
    }
    Ok(reports.iter().all(|r| r.outcome.correct(r.workload)))
}

fn main() -> ExitCode {
    // First statement: `setup_s` of a child counts from here.
    let t_start = Instant::now();
    match real_main(t_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stepbench: {e}");
            ExitCode::from(2)
        }
    }
}
