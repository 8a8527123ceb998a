//! `pimsim` — command-line front end for the PIMSIM-NN framework.
//!
//! ```text
//! pimsim run      <prog.json|prog.s> | --network resnet18 [--size 64]
//!                 [--mapping performance-first] [--batch N] [--baseline]
//!                 [--rob N] [--config arch.json] [--functional] [--json]
//! pimsim compile  --network vgg8 [--size 32] [--mapping ...] [--out prog.json]
//!                 [--asm prog.s]
//! pimsim check    <prog.json|prog.s> | --network resnet18 [--mapping ...]
//!                 [--format text|json] [--deny-warnings]
//! pimsim bound    <prog.json|prog.s> | --network resnet18 [--mapping ...]
//!                 [--format text|json]
//! pimsim asm      <file.s> [--out prog.json]
//! pimsim disasm   <prog.json|prog.s>
//! pimsim sweep    [--config grid.json] [--networks a,b] [--robs 1,4,8] ...
//!                 [--threads N] [--out results.json] [--json]
//! pimsim serve    --networks resnet18,vgg8 [--rate 50000] [--arrivals poisson]
//!                 [--duration 10ms] [--batch 4/50us] [--queue 64]
//!                 [--instances N] [--seed N] [--no-drain] [--json]
//! pimsim networks
//! pimsim config   [--out arch.json]
//! ```

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use pimsim_arch::ArchConfig;
use pimsim_baseline::BaselineSimulator;
use pimsim_compiler::{Compiled, Compiler, MappingPolicy};
use pimsim_core::Simulator;
use pimsim_isa::{asm, Program};
use pimsim_nn::{zoo, Network};
use pimsim_sweep::{
    default_resolution, default_threads, parse_mapping, results_to_json, run_scenarios, SweepError,
    SweepGrid, ARCH_KNOBS,
};

mod args;
use args::Args;

const USAGE: &str =
    "usage: pimsim <run|compile|check|bound|asm|disasm|sweep|serve|networks|config> [options]
  run       simulate a program (a .s/.json file, or --network to compile
            one on the spot; add --baseline for the MNSIM2.0-like
            behaviour-level model)
  compile   compile a network and write the program (JSON and/or assembly)
  check     statically verify a program (a .s/.json file, or --network to
            compile one on the spot): control flow, register dataflow,
            memory bounds, and cross-core send/recv rendezvous
  bound     static performance bounds for a program (same sources as
            check): a sound latency lower bound with its critical path,
            per-core utilization bounds, and per-channel credit occupancy
  asm       assemble a .s file into a program JSON
  disasm    print the assembly of a program (a .json or .s file)
  sweep     run a design-space campaign (cartesian scenario grid) in
            parallel and collect one result row per point
  serve     simulate the chip under open-loop inference traffic (request
            arrivals, batching queue) and report throughput and
            p50/p95/p99 tail latency
  networks  list zoo networks
  config    print (or write) the default architecture configuration

network options (run/compile/check/bound; run/check/bound refuse them
beside a program file, which has fixed them):
  --network NAME      zoo network to compile (see `pimsim networks`)
  --size N            input resolution, default 64; vgg default 32
  --mapping POLICY    performance-first | utilization-first
  --batch N           inferences compiled back to back

architecture options (run/compile/check/bound/serve):
  --config FILE       architecture configuration JSON, default: paper chip
                      (for `sweep`: the grid JSON)
  --rob N             re-order buffer size override
  --routing POLICY    NoC routing: xy (default) | yx | xy-yx | adaptive
  --vcs N             virtual channels per rendezvous channel, default 1
  --router-depth N    router pipeline stages per hop, default 1

other options (in parentheses: the commands that accept each):
  --format FMT        report format: text (default) | json (check/bound)
  --deny-warnings     exit nonzero on warnings, not just errors (check)
  --functional        run functionally, data + timing (run/compile)
  --trace             print the first instruction completions (run)
  --json              machine-readable report (run/sweep)
  --out FILE          output path (compile/asm/sweep/config)
  --asm FILE          also write the program's assembly (compile)

sweep axes (comma-separated; flags override the --config grid; an axis
left empty inherits a single value from the base architecture):
  --networks A,B      zoo networks to sweep (required)
  --resolutions N,M   input resolutions (default: each network's usual)
  --mappings P,Q      mapping policies
  --batches N,M       batch sizes
  --robs N,M          re-order buffer depths
  --adcs N,M          ADCs per crossbar
  --lanes N,M         vector SIMD lanes
  --flits N,M         NoC flit widths (bytes)
  --routings P,Q      NoC routing policies (xy | yx | xy-yx | adaptive)
  --vcs N,M           virtual channels per rendezvous channel
  --router-depths N,M router pipeline depths
  --hazards on,off    structure-hazard settings (ablation)
  --threads N         worker threads (default: available cores; sweep/serve)

serve options (open-loop serving; also takes the architecture options and
--mapping):
  --networks A,B      zoo networks to serve, `name` or `name/RES` (required)
  --rate R            aggregate offered load, requests/second (default 50000)
  --arrivals KIND     arrival process: poisson (default) | fixed | bursty
  --duration D        arrival horizon with a unit: ns/us/ms/s (default 10ms)
  --seed N            arrival-stream RNG seed (default 42)
  --batch POLICY      batch policy `N` or `N/T`: dispatch a batch at N
                      queued requests or when the oldest has waited T
                      (default 4/50us)
  --queue N           admission-queue bound, all networks (default 64)
  --instances N       simulated accelerator instances (default 1)
  --burst-on D        bursty arrivals: on-window length (default 500us)
  --burst-off D       bursty arrivals: off-window length (default 500us)
  --no-drain          stop at the horizon instead of draining the queue
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The one way output (programs, assembly, reports, tables, usage) leaves
/// the process: `f` writes through a buffered writer onto the file at
/// `path`, or onto locked stdout without one. A reader that closed stdout
/// early (`pimsim sweep | head -1`) ends the process quietly.
fn emit(
    path: Option<&str>,
    f: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), String> {
    let write = |sink: &mut dyn Write| {
        f(sink)?;
        sink.flush()
    };
    match path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            write(&mut BufWriter::new(file)).map_err(|e| format!("{path}: {e}"))
        }
        None => match write(&mut BufWriter::new(io::stdout().lock())) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
            result => result.map_err(|e| format!("stdout: {e}")),
        },
    }
}

/// Option sets several subcommands share.
#[derive(PartialEq)]
enum Group {
    /// `--network` and the [`NETWORK_OPTIONS`] that shape it.
    Network,
    /// `--config` and each architecture knob's single-value option.
    Arch,
    /// Each architecture knob's sweep axis flag.
    Axes,
}

/// One subcommand: its name, its option vocabulary (so one command's
/// options are rejected with a hint on another instead of being silently
/// ignored), and its entry point.
struct CommandSpec {
    name: &'static str,
    groups: &'static [Group],
    /// Options taking a value, besides the groups'.
    options: &'static [&'static str],
    flags: &'static [&'static str],
    max_positionals: usize,
    run: fn(&Args) -> Result<(), String>,
}

impl CommandSpec {
    /// Every option that takes a value: the command's own, then its
    /// groups', the knob ones read off [`ARCH_KNOBS`].
    fn value_options(&self) -> Vec<&'static str> {
        let mut names = self.options.to_vec();
        for group in self.groups {
            match group {
                Group::Network => names.extend(NETWORK_OPTIONS),
                Group::Arch => names.extend(
                    std::iter::once("config").chain(ARCH_KNOBS.iter().filter_map(|k| k.option)),
                ),
                Group::Axes => names.extend(ARCH_KNOBS.iter().map(|k| k.axis_flag)),
            }
        }
        names
    }

    fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let vocab = args::Vocabulary {
            value_options: &self.value_options(),
            flags: self.flags,
            max_positionals: self.max_positionals,
        };
        Args::parse(argv, &vocab)
    }
}

/// The complete subcommand table — the single source the parser, the
/// dispatcher, and the tests all read.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "run",
        groups: &[Group::Network, Group::Arch],
        options: &[],
        flags: &["baseline", "functional", "trace", "json", "help"],
        max_positionals: 1,
        run: cmd_run,
    },
    CommandSpec {
        name: "compile",
        groups: &[Group::Network, Group::Arch],
        options: &["out", "asm"],
        flags: &["functional", "help"],
        max_positionals: 0,
        run: cmd_compile,
    },
    CommandSpec {
        name: "check",
        groups: &[Group::Network, Group::Arch],
        options: &["format"],
        flags: &["deny-warnings", "help"],
        max_positionals: 1,
        run: cmd_check,
    },
    CommandSpec {
        name: "bound",
        groups: &[Group::Network, Group::Arch],
        options: &["format"],
        flags: &["help"],
        max_positionals: 1,
        run: cmd_bound,
    },
    CommandSpec {
        name: "asm",
        groups: &[],
        options: &["out"],
        flags: &["help"],
        max_positionals: 1,
        run: cmd_asm,
    },
    CommandSpec {
        name: "disasm",
        groups: &[],
        options: &[],
        flags: &["help"],
        max_positionals: 1,
        run: cmd_disasm,
    },
    CommandSpec {
        name: "sweep",
        groups: &[Group::Axes],
        options: &[
            "config",
            "out",
            "threads",
            "networks",
            "resolutions",
            "mappings",
            "batches",
        ],
        flags: &["json", "help"],
        max_positionals: 0,
        run: cmd_sweep,
    },
    CommandSpec {
        name: "serve",
        groups: &[Group::Arch],
        options: &[
            "networks",
            "mapping",
            "rate",
            "arrivals",
            "duration",
            "seed",
            "batch",
            "queue",
            "instances",
            "burst-on",
            "burst-off",
            "threads",
            "out",
        ],
        flags: &["no-drain", "json", "help"],
        max_positionals: 0,
        run: cmd_serve,
    },
    CommandSpec {
        name: "networks",
        groups: &[],
        options: &[],
        flags: &["help"],
        max_positionals: 0,
        run: cmd_networks,
    },
    CommandSpec {
        name: "config",
        groups: &[],
        options: &["out"],
        flags: &["help"],
        max_positionals: 0,
        run: cmd_config,
    },
];

fn dispatch(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().map_or("help", String::as_str);
    if matches!(cmd, "help" | "--help" | "-h") {
        return emit(None, |w| w.write_all(USAGE.as_bytes()));
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == cmd) else {
        let hint = match args::closest(cmd, COMMANDS.iter().map(|s| s.name)) {
            Some(s) => format!(" — did you mean `{s}`?"),
            None => String::new(),
        };
        return Err(format!("unknown command `{cmd}`{hint}\n{USAGE}"));
    };
    let args = spec.parse(&argv[1..])?;
    if args.flag("help") {
        return emit(None, |w| w.write_all(USAGE.as_bytes()));
    }
    (spec.run)(&args)
}

fn load_arch(args: &Args) -> Result<ArchConfig, String> {
    let mut arch = match args.get("config") {
        Some(path) => ArchConfig::from_file(path).map_err(|e| e.to_string())?,
        None => ArchConfig::paper_default(),
    };
    for knob in ARCH_KNOBS {
        let Some(name) = knob.option else { continue };
        if let Some(text) = args.get(name) {
            let value = (knob.parse)(text).map_err(|e| format!("--{name} {e}"))?;
            (knob.set)(&mut arch, value);
        }
    }
    arch.sim.functional |= args.flag("functional");
    arch.sim.trace |= args.flag("trace");
    arch.validate().map_err(|e| e.to_string())?;
    Ok(arch)
}

fn load_network(args: &Args) -> Result<Network, String> {
    let name = args
        .get("network")
        .ok_or("missing --network (try `pimsim networks`)")?;
    let size = args
        .get_num("size")?
        .unwrap_or_else(|| default_resolution(name));
    let net = zoo::by_name(name, size).ok_or_else(|| format!("unknown network `{name}`"))?;
    net.validate().map_err(|e| e.to_string())?;
    Ok(net)
}

fn mapping_policy(args: &Args) -> Result<MappingPolicy, String> {
    parse_mapping(args.get("mapping").unwrap_or("performance-first")).map_err(|e| e.to_string())
}

/// The options that pick and shape the network `--network` compiles; a
/// program file has already fixed them.
const NETWORK_OPTIONS: [&str; 4] = ["network", "size", "mapping", "batch"];

/// `--network` compiled on the spot under `--mapping` and `--batch`.
fn compile_network(args: &Args, arch: &ArchConfig) -> Result<Compiled, String> {
    let net = load_network(args)?;
    Compiler::new(arch)
        .mapping(mapping_policy(args)?)
        .batch(args.get_num("batch")?.unwrap_or(1))
        .compile(&net)
        .map_err(|e| e.to_string())
}

/// The text of the file at `path`; an error names the path.
fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The program in the file at `path`: assembly text when the name ends in
/// `.s`, a program JSON file otherwise.
fn read_program(path: &str) -> Result<Program, String> {
    let text = read_text(path)?;
    if path.ends_with(".s") {
        asm::assemble(&text)
    } else {
        Program::from_json(&text)
    }
    .map_err(|e| e.to_string())
}

/// The program `run`, `check` and `bound` work on.
enum ProgramSource {
    /// `--network`, compiled on the spot.
    Network(Compiled),
    /// A positional `.json`/`.s` file, and its path.
    File(Program, String),
}

impl ProgramSource {
    /// Resolves exactly one of a positional program file and `--network`.
    /// The options that shape a compiled network (and `run --baseline`,
    /// which simulates the network, not a program) are refused beside a
    /// file instead of being silently ignored.
    fn resolve(args: &Args, arch: &ArchConfig, cmd: &str) -> Result<ProgramSource, String> {
        match (args.positional.first(), args.get("network")) {
            (Some(_), Some(_)) => Err("give a program file or --network, not both".to_string()),
            (Some(path), None) => {
                let mut network_only = NETWORK_OPTIONS
                    .into_iter()
                    .filter(|name| args.get(name).is_some())
                    .chain(args.flag("baseline").then_some("baseline"));
                if let Some(name) = network_only.next() {
                    return Err(format!(
                        "--{name} applies to --network, not to a program file"
                    ));
                }
                Ok(ProgramSource::File(read_program(path)?, path.clone()))
            }
            (None, Some(_)) => compile_network(args, arch).map(ProgramSource::Network),
            (None, None) => Err(format!(
                "usage: pimsim {cmd} <prog.json|prog.s> | pimsim {cmd} --network NAME"
            )),
        }
    }

    fn program(&self) -> &Program {
        match self {
            ProgramSource::Network(compiled) => &compiled.program,
            ProgramSource::File(program, _) => program,
        }
    }

    /// How text reports name the program.
    fn label(&self) -> String {
        match self {
            ProgramSource::Network(c) => format!("{} under {}", c.program.meta.name, c.policy),
            ProgramSource::File(_, path) => path.clone(),
        }
    }
}

/// `text` as a JSON string literal: quoted, and escaped by the JSON
/// writer, since a program file's name is whatever its author wrote.
fn json_string(text: &str) -> String {
    serde_json::to_string(text).unwrap_or_default()
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let arch = load_arch(args)?;
    if args.flag("baseline") && args.positional.is_empty() {
        let net = load_network(args)?;
        let report = BaselineSimulator::new(&arch)
            .run(&net)
            .map_err(|e| e.to_string())?;
        return emit(None, |w| {
            if args.flag("json") {
                writeln!(
                    w,
                    "{{\"simulator\":\"baseline\",\"network\":{},\"latency_ns\":{},\"energy_pj\":{},\"power_w\":{}}}",
                    json_string(&net.name),
                    report.latency.as_ns_f64(),
                    report.energy.as_pj(),
                    report.avg_power_w()
                )
            } else {
                writeln!(w, "baseline (MNSIM2.0-like) on {}:", net.name)?;
                writeln!(w, "  latency : {}", report.latency)?;
                writeln!(w, "  energy  : {}", report.energy)?;
                writeln!(w, "  power   : {:.3} W", report.avg_power_w())?;
                writeln!(w, "  layers  : {}", report.per_layer.len())
            }
        });
    }

    let source = ProgramSource::resolve(args, &arch, "run")?;
    let program = source.program();
    let report = Simulator::new(&arch)
        .run(program)
        .map_err(|e| e.to_string())?;
    // A program file does not record a batch: it is one inference.
    let batch = match &source {
        ProgramSource::Network(compiled) => compiled.batch,
        ProgramSource::File(..) => 1,
    };
    let per_image = report.latency / u64::from(batch);
    let (name, mapping) = (&program.meta.name, &program.meta.mapping);
    if args.flag("json") {
        return emit(None, |w| {
            writeln!(
                w,
                "{{\"simulator\":\"cycle-accurate\",\"network\":{},\"mapping\":{},\"batch\":{},\"latency_ns\":{},\"latency_per_image_ns\":{},\"energy_pj\":{},\"power_w\":{},\"instructions\":{},\"events\":{}}}",
                json_string(name),
                json_string(mapping),
                batch,
                report.latency.as_ns_f64(),
                per_image.as_ns_f64(),
                report.energy.total().as_pj(),
                report.avg_power_w(),
                report.instructions,
                report.events
            )
        });
    }
    emit(None, |w| {
        writeln!(w, "{name} under {mapping} (batch {batch}):")?;
        writeln!(w, "  latency        : {}", report.latency)?;
        if batch > 1 {
            writeln!(w, "  per image      : {per_image}")?;
        }
        writeln!(w, "  energy         : {}", report.energy.total())?;
        writeln!(
            w,
            "    matrix {} / vector {} / transfer {} / static {}",
            report.energy.matrix,
            report.energy.vector,
            report.energy.transfer,
            report.energy.static_energy
        )?;
        writeln!(w, "  power          : {:.3} W", report.avg_power_w())?;
        writeln!(
            w,
            "  instructions   : {} (matrix {}, vector {}, transfer {}, scalar {})",
            report.instructions,
            report.class_counts[0],
            report.class_counts[1],
            report.class_counts[2],
            report.class_counts[3]
        )?;
        writeln!(w, "  kernel events  : {}", report.events)?;
        // The compiler's placement and output location are not part of a
        // program file.
        if let ProgramSource::Network(compiled) = &source {
            writeln!(w, "  cores w/ work  : {}", compiled.placement.cores_used)?;
            if arch.sim.functional {
                let out = report.read_global(compiled.output.gaddr, compiled.output.elems.min(8));
                writeln!(w, "  output head    : {out:?}")?;
            }
        }
        if arch.sim.trace {
            writeln!(w, "  trace (first 20 of {}):", report.trace.len())?;
            for t in report.trace.iter().take(20) {
                writeln!(
                    w,
                    "    {:>12}  core{:<3} {}",
                    format!("{}", t.time),
                    t.core,
                    t.instr
                )?;
            }
        }
        Ok(())
    })
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let arch = load_arch(args)?;
    let compiled = compile_network(args, &arch)?;
    eprintln!(
        "compiled {}: {} instructions over {} cores",
        compiled.program.meta.name,
        compiled.program.total_instructions(),
        compiled.placement.cores_used
    );
    if let Some(path) = args.get("out") {
        emit(Some(path), |w| compiled.program.write_json(w))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.get("asm") {
        emit(Some(path), |w| asm::write_disassembly(&compiled.program, w))?;
        eprintln!("wrote {path}");
    }
    if args.get("out").is_none() && args.get("asm").is_none() {
        emit(None, |w| asm::write_disassembly(&compiled.program, w))?;
    }
    Ok(())
}

/// Validates `--format` for the analyzer commands.
fn report_format(args: &Args) -> Result<&str, String> {
    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        let hint = match args::closest(format, ["text", "json"]) {
            Some(s) => format!(" — did you mean `{s}`?"),
            None => String::new(),
        };
        return Err(format!(
            "unknown format `{format}`: want text or json{hint}"
        ));
    }
    Ok(format)
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let arch = load_arch(args)?;
    let format = report_format(args)?;
    let source = ProgramSource::resolve(args, &arch, "check")?;
    let label = source.label();

    let analysis = pimsim_analyze::analyze(source.program(), &arch);
    if format == "json" {
        emit(None, |w| writeln!(w, "{}", analysis.to_json()))?;
    } else {
        emit(None, |w| {
            for d in &analysis.diagnostics {
                writeln!(w, "{d}")?;
            }
            if pimsim_analyze::rejected(&analysis.diagnostics) {
                return writeln!(w, "{label}: not analyzed because of the error(s) above");
            }
            writeln!(
                w,
                "{label}: {}; rendezvous: {} pair(s){}",
                analysis.summary(),
                analysis.rendezvous.pairs.len(),
                if analysis.rendezvous.complete {
                    ", complete"
                } else {
                    " (incomplete: program has data-dependent control flow or \
                     unmatched transfers)"
                }
            )
        })?;
    }
    if analysis.has_errors() {
        return Err(format!("static analysis failed: {}", analysis.summary()));
    }
    if args.flag("deny-warnings") && analysis.warning_count() > 0 {
        return Err(format!(
            "static analysis produced warnings (denied by --deny-warnings): {}",
            analysis.summary()
        ));
    }
    Ok(())
}

fn cmd_bound(args: &Args) -> Result<(), String> {
    let arch = load_arch(args)?;
    let format = report_format(args)?;
    let source = ProgramSource::resolve(args, &arch, "bound")?;
    let label = source.label();

    let report = pimsim_analyze::bounds(source.program(), &arch);
    if format == "json" {
        emit(None, |w| writeln!(w, "{}", report.to_json()))?;
    } else {
        emit(None, |w| {
            for d in &report.diagnostics {
                writeln!(w, "{d}")?;
            }
            if pimsim_analyze::rejected(&report.diagnostics) {
                return writeln!(w, "{label}: not analyzed because of the error(s) above");
            }
            if report.bound_source == "unanalyzable" {
                return writeln!(
                    w,
                    "{label}: no bound computed because of the error(s) above"
                );
            }
            writeln!(
                w,
                "{label}: latency lower bound {:.3} ns ({} ps), source: {}{}",
                report.latency_lb_ns,
                report.latency_lb_ps,
                report.bound_source,
                if report.complete {
                    ""
                } else {
                    " (incomplete analysis: bound degrades to pacing terms)"
                }
            )?;
            if !report.critical_path.is_empty() {
                let shown = report.critical_path.len() as u32;
                if shown < report.critical_path_len {
                    writeln!(
                        w,
                        "critical path: {} hops, last {shown} shown:",
                        report.critical_path_len
                    )?;
                } else {
                    writeln!(w, "critical path ({shown} hops):")?;
                }
                for h in &report.critical_path {
                    writeln!(
                        w,
                        "  core{} pc{:<5} +{} ps -> {} ps  {}",
                        h.core, h.pc, h.cost_ps, h.finish_ps, h.instr
                    )?;
                }
            }
            if !report.cores.is_empty() {
                writeln!(w, "per-core bounds:")?;
            }
            for c in &report.cores {
                writeln!(
                    w,
                    "  core{}: {} instr, busy >= {} ps, finish >= {} ps, \
                     utilization >= {:.1}%",
                    c.core,
                    c.instructions,
                    c.busy_lb_ps,
                    c.finish_lb_ps,
                    c.utilization_lb * 100.0
                )?;
            }
            if !report.channels.is_empty() {
                writeln!(w, "channel credit occupancy:")?;
                for ch in &report.channels {
                    writeln!(
                        w,
                        "  core{}->core{} tag={}: {} message(s), peak in-flight {}, \
                         peak/VC {}, min credits {}",
                        ch.sender,
                        ch.receiver,
                        ch.tag,
                        ch.messages,
                        ch.peak_in_flight,
                        ch.peak_per_vc,
                        ch.min_credits
                            .map_or_else(|| "-".to_string(), |c| c.to_string())
                    )?;
                }
                if let Some(m) = report.min_credits_deadlock_free {
                    writeln!(
                        w,
                        "deadlock-free from {m} credit(s)/VC; no benefit past {} \
                         (configured: {})",
                        report.credit_knee, arch.noc.channel_credits
                    )?;
                }
            }
            Ok(())
        })?;
    }
    if report.bound_source == "unanalyzable" {
        return Err(format!(
            "static analysis failed; no bound computed ({} diagnostic(s))",
            report.diagnostics.len()
        ));
    }
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: pimsim asm <file.s> [--out prog.json]")?;
    let program = asm::assemble(&read_text(path)?).map_err(|e| e.to_string())?;
    emit(args.get("out"), |w| program.write_json(w))?;
    if let Some(out) = args.get("out") {
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: pimsim disasm <prog.json|prog.s>")?;
    // Both readers refuse an operand past its field, so every program
    // read here prints.
    let program = read_program(path)?;
    emit(None, |w| asm::write_disassembly(&program, w))
}

/// The campaign `sweep` runs: the `--config` grid, with the axes given as
/// flags replacing the file's.
fn sweep_grid(args: &Args) -> Result<SweepGrid, String> {
    let mut grid = match args.get("config") {
        Some(path) => SweepGrid::from_file(path).map_err(|e| e.to_string())?,
        None => SweepGrid::default(),
    };
    if let Some(v) = args.get_csv("networks") {
        grid.networks = v;
    }
    if let Some(v) = args.get_nums("resolutions")? {
        grid.resolutions = v;
    }
    if let Some(v) = args.get_csv("mappings") {
        grid.mappings = v;
    }
    if let Some(v) = args.get_nums("batches")? {
        grid.batches = v;
    }
    for knob in ARCH_KNOBS {
        if let Some(items) = args.get_csv(knob.axis_flag) {
            let values = items
                .iter()
                .map(|v| (knob.parse)(v))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("--{} {e}", knob.axis_flag))?;
            (knob.set_axis)(&mut grid, values);
        }
    }
    Ok(grid)
}

/// `--threads`, at least 1; default: every core the host offers.
fn threads(args: &Args) -> Result<usize, String> {
    Ok(args
        .get_num::<u32>("threads")?
        .map_or_else(default_threads, |t| t.max(1) as usize))
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let grid = sweep_grid(args)?;
    let threads = threads(args)?;
    let scenarios = grid.scenarios().map_err(|e| e.to_string())?;
    eprintln!(
        "sweep: {} scenario(s) on {} thread(s)",
        scenarios.len(),
        threads
    );
    let start = std::time::Instant::now();
    let rows = run_scenarios(scenarios, threads).map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let json = results_to_json(&rows);
    if let Some(path) = args.get("out") {
        emit(Some(path), |w| w.write_all(json.as_bytes()))?;
        eprintln!("wrote {path}");
    }
    if args.flag("json") {
        emit(None, |w| writeln!(w, "{json}"))?;
    } else if args.get("out").is_none() {
        emit(None, |w| {
            writeln!(
                w,
                "{:<48} {:>13} {:>12} {:>9}",
                "scenario", "latency/img", "energy", "power"
            )?;
            for row in &rows {
                writeln!(
                    w,
                    "{:<48} {:>13} {:>9.1} uJ {:>7.3} W",
                    row.scenario.display_label(),
                    format!("{}", row.latency_per_image()),
                    row.energy_pj / 1e6,
                    row.power_w
                )?;
            }
            Ok(())
        })?;
    }
    eprintln!(
        "sweep: {} point(s) in {:.2}s wall-clock",
        rows.len(),
        wall.as_secs_f64()
    );
    Ok(())
}

/// `pimsim serve`: the open-loop inference-serving simulation — seeded
/// request arrivals, a batching admission queue, and the cycle-accurate
/// simulator as the per-batch service-time model.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let names = args
        .get_csv("networks")
        .ok_or("missing --networks (try `pimsim networks`)")?;
    let mut networks = Vec::with_capacity(names.len());
    for item in &names {
        let (name, resolution) = match item.split_once('/') {
            Some((n, r)) => {
                let res = r.parse().map_err(|_| {
                    format!("--networks: `{item}` has a bad resolution (want e.g. `{n}/64`)")
                })?;
                (n.to_string(), res)
            }
            None => (item.clone(), default_resolution(item)),
        };
        networks.push((name, resolution));
    }
    let mut config = pimsim_serve::ServeConfig::new(networks);
    config.arch = load_arch(args)?;
    config.mapping = mapping_policy(args)?;
    if let Some(rate) = args.get_num("rate")? {
        config.rate_rps = rate;
    }
    if let Some(v) = args.get("arrivals") {
        config.arrivals = v.parse().map_err(|e: pimsim_serve::ServeError| {
            let names = pimsim_serve::ArrivalProcess::ALL.map(|a| a.name());
            match args::closest(v, names) {
                Some(s) => format!("{e} — did you mean `{s}`?"),
                None => e.to_string(),
            }
        })?;
    }
    if let Some(v) = args.get("duration") {
        config.duration =
            pimsim_serve::parse_duration(v).map_err(|e| format!("--duration: {e}"))?;
    }
    if let Some(seed) = args.get_num("seed")? {
        config.seed = seed;
    }
    if let Some(v) = args.get("batch") {
        config.batch = v
            .parse()
            .map_err(|e: pimsim_serve::ServeError| e.to_string())?;
    }
    if let Some(cap) = args.get_num("queue")? {
        config.queue_cap = cap;
    }
    if let Some(n) = args.get_num("instances")? {
        config.instances = n;
    }
    if let Some(v) = args.get("burst-on") {
        config.burst_on =
            pimsim_serve::parse_duration(v).map_err(|e| format!("--burst-on: {e}"))?;
    }
    if let Some(v) = args.get("burst-off") {
        config.burst_off =
            pimsim_serve::parse_duration(v).map_err(|e| format!("--burst-off: {e}"))?;
    }
    if args.flag("no-drain") {
        config.drain = false;
    }
    let report = pimsim_serve::serve(&config, threads(args)?).map_err(|e| match &e {
        pimsim_serve::ServeError::Service(SweepError::UnknownNetwork(n)) => {
            match args::closest(n, zoo::NAMES.iter().copied()) {
                Some(s) => format!("{e} — did you mean `{s}`?"),
                None => e.to_string(),
            }
        }
        _ => e.to_string(),
    })?;
    let json = report.to_json();
    if let Some(path) = args.get("out") {
        emit(Some(path), |w| w.write_all(json.as_bytes()))?;
        eprintln!("wrote {path}");
    }
    if args.flag("json") {
        emit(None, |w| writeln!(w, "{json}"))?;
    } else if args.get("out").is_none() {
        emit(None, |w| w.write_all(report.render_text().as_bytes()))?;
    }
    Ok(())
}

fn cmd_networks(_args: &Args) -> Result<(), String> {
    emit(None, |w| {
        for name in zoo::NAMES {
            let default = default_resolution(name);
            if let Some(net) = zoo::by_name(name, default) {
                writeln!(
                    w,
                    "{name:11} {:3} layers, {:5.2} GMACs @ {default}x{default}",
                    net.nodes.len(),
                    net.total_macs() as f64 / 1e9
                )?;
            }
        }
        Ok(())
    })
}

fn cmd_config(args: &Args) -> Result<(), String> {
    let cfg = ArchConfig::paper_default();
    match args.get("out") {
        Some(path) => {
            cfg.to_file(path).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => emit(None, |w| writeln!(w, "{}", cfg.to_json()))?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--name` in the USAGE text, in order of appearance.
    fn usage_options() -> Vec<String> {
        let mut out = Vec::new();
        let mut rest = USAGE;
        while let Some(pos) = rest.find("--") {
            rest = &rest[pos + 2..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            if !name.is_empty() {
                out.push(name);
            }
        }
        out
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_lists_every_command() {
        for spec in COMMANDS {
            assert!(
                USAGE.contains(spec.name),
                "USAGE does not mention `{}`",
                spec.name
            );
        }
    }

    #[test]
    fn command_typos_get_a_suggestion() {
        let err = dispatch(&argv(&["chekc"])).unwrap_err();
        assert!(err.contains("unknown command `chekc`"), "{err}");
        assert!(err.contains("did you mean `check`?"), "{err}");
    }

    #[test]
    fn check_rejects_typos_duplicates_and_unknown_formats() {
        let err = dispatch(&argv(&[
            "check",
            "--network",
            "tiny_mlp",
            "--formt",
            "json",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown option --formt"), "{err}");
        assert!(err.contains("did you mean --format"), "{err}");
        let err = dispatch(&argv(&[
            "check",
            "--network",
            "tiny_mlp",
            "--format",
            "text",
            "--format",
            "json",
        ]))
        .unwrap_err();
        assert!(err.contains("--format given more than once"), "{err}");
        let err = dispatch(&argv(&[
            "check",
            "--network",
            "tiny_mlp",
            "--format",
            "jsn",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown format `jsn`"), "{err}");
        assert!(err.contains("did you mean `json`?"), "{err}");
        // Options from other commands are rejected, not ignored.
        let err = dispatch(&argv(&["check", "--network", "tiny_mlp", "--rate", "5"])).unwrap_err();
        assert!(err.contains("unknown option --rate"), "{err}");
    }

    #[test]
    fn check_requires_exactly_one_program_source() {
        let err = dispatch(&argv(&["check"])).unwrap_err();
        assert!(err.contains("usage: pimsim check"), "{err}");
        let err = dispatch(&argv(&["check", "prog.json", "--network", "tiny_mlp"])).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn program_files_refuse_network_options() {
        let dir = std::env::temp_dir().join("pimsim-cli-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.s");
        std::fs::write(
            &good,
            ".core 0\nli r1, 0\nsend core1, [r1+0], 8, tag=1\nhalt\n\
             .core 1\nrecv core0, [r0+0], 8, tag=1\nhalt\n",
        )
        .unwrap();
        let file = good.to_str().unwrap();
        // These used to exit 0 having ignored the options: the file was
        // compiled under whatever size, mapping and batch it was.
        for (cmd, option, value) in [
            ("bound", "--batch", "4"),
            ("bound", "--mapping", "utilization-first"),
            ("check", "--size", "7"),
            ("run", "--batch", "2"),
            ("run", "--baseline", ""),
        ] {
            let line: Vec<&str> = [cmd, file, option, value]
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect();
            let err = dispatch(&argv(&line)).unwrap_err();
            assert_eq!(
                err,
                format!("{option} applies to --network, not to a program file"),
                "{line:?}"
            );
        }
        // Architecture options apply to either source.
        dispatch(&argv(&["bound", file, "--rob", "2", "--vcs", "2"])).unwrap();
    }

    /// What a knob's `other` value is in the tests: valid, and not the
    /// paper chip's.
    fn other_value(knob: &pimsim_sweep::ArchKnob) -> String {
        match (knob.get)(&ArchConfig::paper_default()) {
            pimsim_sweep::KnobValue::Count(n) => (n * 2).to_string(),
            pimsim_sweep::KnobValue::Routing(_) => "yx".to_string(),
            pimsim_sweep::KnobValue::Switch(on) => if on { "off" } else { "on" }.to_string(),
        }
    }

    /// Each knob row reaches every command that takes an architecture
    /// (as its single-value option, when it has one) and `sweep` (as its
    /// axis flag), and the value lands where the row says.
    #[test]
    fn every_knob_is_an_option_and_a_sweep_axis() {
        let arch_commands: Vec<&CommandSpec> = COMMANDS
            .iter()
            .filter(|spec| spec.groups.contains(&Group::Arch))
            .collect();
        let names: Vec<&str> = arch_commands.iter().map(|spec| spec.name).collect();
        assert_eq!(names, ["run", "compile", "check", "bound", "serve"]);
        let sweep = COMMANDS.iter().find(|spec| spec.name == "sweep").unwrap();
        for knob in ARCH_KNOBS {
            let value = other_value(knob);
            let expected = (knob.parse)(&value).unwrap();
            if let Some(option) = knob.option {
                for spec in &arch_commands {
                    let args = spec
                        .parse(&argv(&[&format!("--{option}"), &value]))
                        .unwrap();
                    assert_eq!((knob.get)(&load_arch(&args).unwrap()), expected, "{option}");
                }
            }
            let flag = format!("--{}", knob.axis_flag);
            let both = format!("{value},{value}");
            let args = sweep.parse(&argv(&[&flag, &both])).unwrap();
            let grid = sweep_grid(&args).unwrap();
            assert_eq!((knob.axis)(&grid).unwrap(), [expected, expected], "{flag}");
        }
    }

    #[test]
    fn check_passes_clean_programs_and_fails_broken_ones() -> Result<(), Box<dyn std::error::Error>>
    {
        let dir = std::env::temp_dir().join("pimsim-cli-check-test");
        std::fs::create_dir_all(&dir)?;
        // A clean pair of cores passes.
        let good = dir.join("good.s");
        std::fs::write(
            &good,
            ".core 0\nli r1, 0\nsend core1, [r1+0], 8, tag=1\nhalt\n\
             .core 1\nrecv core0, [r0+0], 8, tag=1\nhalt\n",
        )?;
        dispatch(&argv(&["check", &good.to_string_lossy()]))?;
        // An unmatched recv is an error exit.
        let bad = dir.join("bad.s");
        std::fs::write(&bad, ".core 0\nrecv core1, [r0+0], 8, tag=7\nhalt\n")?;
        let err = dispatch(&argv(&["check", &bad.to_string_lossy()])).unwrap_err();
        assert!(err.contains("static analysis failed"), "{err}");
        // A warning passes by default but fails under --deny-warnings.
        let warn = dir.join("warn.s");
        std::fs::write(&warn, ".core 0\nnop\n")?;
        dispatch(&argv(&["check", &warn.to_string_lossy()]))?;
        let err = dispatch(&argv(&[
            "check",
            &warn.to_string_lossy(),
            "--deny-warnings",
        ]))
        .unwrap_err();
        assert!(err.contains("denied by --deny-warnings"), "{err}");
        // A compiled zoo network is analysis-clean under --deny-warnings.
        dispatch(&argv(&[
            "check",
            "--network",
            "tiny_cnn",
            "--deny-warnings",
        ]))?;
        Ok(())
    }

    #[test]
    fn program_file_errors_name_line_and_column() {
        let dir = std::env::temp_dir().join("pimsim-cli-json-error-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Ten lines; the string where an init value wants a number is on
        // line 7, the second instruction on line 6.
        let text = "{\n  \"format\": 2,\n  \"cores\": [{\n    \"instrs\": [\n      \
                    \"vfill [r0+0], 3, 16\",\n      \"halt\"],\n    \
                    \"groups\": [], \"local_init\": [[0, [\"sixteen\"]]],\n    \
                    \"labels\": {}}],\n  \
                    \"meta\": {\"name\": \"t\", \"mapping\": \"m\", \"notes\": \"\"}\n}\n";
        assert_eq!(text.lines().count(), 10);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, text).unwrap();
        let err = dispatch(&argv(&["check", bad.to_str().unwrap()])).unwrap_err();
        assert_eq!(
            err,
            "parse error: expected i32, found string at line 7 column 39"
        );
        // The location is printed once, not once per layer.
        let unknown = dir.join("unknown.json");
        std::fs::write(&unknown, text.replace("\"halt\"", "\"frob r1\"")).unwrap();
        let err = dispatch(&argv(&["check", unknown.to_str().unwrap()])).unwrap_err();
        assert_eq!(
            err,
            "parse error: core 0 pc 1: unknown mnemonic `frob` in `frob r1` at line 6 column 7"
        );
        // With the number in place the same file loads and checks.
        let good = dir.join("good.json");
        std::fs::write(&good, text.replace("\"sixteen\"", "16")).unwrap();
        dispatch(&argv(&["check", good.to_str().unwrap()])).unwrap();
        // Nesting no program has is a located error, not a stack overflow.
        let deep = dir.join("deep.json");
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let err = dispatch(&argv(&["check", deep.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("at line 1 column 1"), "{err}");
    }

    /// One loader for every command that reads a program file: a file
    /// that cannot be read is named in the error.
    #[test]
    fn read_errors_name_the_file() {
        let missing = std::env::temp_dir().join("pimsim-cli-no-such-dir/prog.json");
        let missing = missing.display().to_string();
        for cmd in ["run", "check", "bound", "asm", "disasm"] {
            let err = dispatch(&argv(&[cmd, &missing])).unwrap_err();
            assert!(err.starts_with(&format!("{missing}: ")), "{cmd}: {err}");
        }
    }

    #[test]
    fn bound_reports_on_clean_programs_and_fails_unanalyzable_ones() {
        let dir = std::env::temp_dir().join("pimsim-cli-bound-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.s");
        std::fs::write(
            &good,
            ".core 0\nli r1, 0\nsend core1, [r1+0], 8, tag=1\nhalt\n\
             .core 1\nrecv core0, [r0+0], 8, tag=1\nhalt\n",
        )
        .unwrap();
        dispatch(&argv(&["bound", good.to_str().unwrap()])).unwrap();
        dispatch(&argv(&[
            "bound",
            good.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        // Program sources mirror `check`: exactly one of file / --network.
        let err = dispatch(&argv(&["bound"])).unwrap_err();
        assert!(err.contains("usage: pimsim bound"), "{err}");
        let err = dispatch(&argv(&[
            "bound",
            good.to_str().unwrap(),
            "--network",
            "tiny_mlp",
        ]))
        .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // A compiled zoo network gets a non-trivial bound.
        dispatch(&argv(&["bound", "--network", "tiny_mlp"])).unwrap();
        // A statically broken program has no bound and is an error exit.
        let bad = dir.join("bad.s");
        std::fs::write(&bad, ".core 0\nrecv core1, [r0+0], 8, tag=7\nhalt\n").unwrap();
        let err = dispatch(&argv(&["bound", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no bound computed"), "{err}");
        // `--deny-warnings` belongs to `check`, not `bound`.
        let err = dispatch(&argv(&[
            "bound",
            "--network",
            "tiny_mlp",
            "--deny-warnings",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown option --deny-warnings"), "{err}");
    }

    #[test]
    fn serve_validates_its_options() {
        let err = dispatch(&argv(&["serve"])).unwrap_err();
        assert!(err.contains("missing --networks"), "{err}");
        let err = dispatch(&argv(&[
            "serve",
            "--networks",
            "tiny_mlp",
            "--arrivals",
            "poison",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown arrival process `poison`"), "{err}");
        assert!(err.contains("did you mean `poisson`?"), "{err}");
        let err = dispatch(&argv(&[
            "serve",
            "--networks",
            "tiny_mlp",
            "--batch",
            "4@50us",
        ]))
        .unwrap_err();
        assert!(err.contains("bad batch policy"), "{err}");
        let err = dispatch(&argv(&["serve", "--networks", "tiny_mlp/x"])).unwrap_err();
        assert!(err.contains("bad resolution"), "{err}");
        // An unknown network is caught before any simulation, with a hint.
        let err = dispatch(&argv(&["serve", "--networks", "tiny_mpl"])).unwrap_err();
        assert!(err.contains("unknown network `tiny_mpl`"), "{err}");
        assert!(err.contains("did you mean `tiny_mlp`?"), "{err}");
        // Durations need a unit.
        let err = dispatch(&argv(&[
            "serve",
            "--networks",
            "tiny_mlp",
            "--duration",
            "10",
        ]))
        .unwrap_err();
        assert!(err.contains("--duration"), "{err}");
        // A timeout past 64-bit picoseconds, a rate past the request
        // budget and a square wave of empty windows all used to exit 0
        // with wrapped or truncated numbers.
        let serve = |extra: &[&str]| {
            let mut line = vec!["serve", "--networks", "tiny_mlp"];
            line.extend_from_slice(extra);
            dispatch(&argv(&line)).unwrap_err()
        };
        let err = serve(&["--duration", "1ms", "--batch", "4/18446745s"]);
        assert!(err.contains("does not fit 64-bit picoseconds"), "{err}");
        let err = serve(&["--rate", "1e300"]);
        assert!(err.contains("workload exceeds 4000000 requests"), "{err}");
        let err = serve(&[
            "--arrivals",
            "bursty",
            "--burst-on",
            "1ns",
            "--burst-off",
            "1ns",
            "--duration",
            "10s",
            "--rate",
            "1",
        ]);
        assert!(err.contains("workload exceeds 4000000 requests"), "{err}");
        // `run`'s flags don't leak into `serve`.
        let err = dispatch(&argv(&["serve", "--networks", "tiny_mlp", "--baseline"])).unwrap_err();
        assert!(err.contains("unknown option --baseline"), "{err}");
    }

    #[test]
    fn serve_runs_end_to_end() {
        let dir = std::env::temp_dir().join("pimsim-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("small.json");
        ArchConfig::small_test().to_file(&arch).unwrap();
        let out = dir.join("serve.json");
        dispatch(&argv(&[
            "serve",
            "--networks",
            "tiny_mlp",
            "--config",
            arch.to_str().unwrap(),
            "--rate",
            "100000",
            "--duration",
            "200us",
            "--batch",
            "2/20us",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"p99_latency_ns\""), "{text}");
        assert!(text.contains("\"throughput_rps\""), "{text}");
        assert!(text.contains("\"network\": \"tiny_mlp\""), "{text}");
    }

    /// The CLI reference in docs/cli.md must document every subcommand
    /// section-by-section, and each section's set of `--option` mentions
    /// must equal that subcommand's actual vocabulary — no missing
    /// options, no stale ones.
    #[test]
    fn cli_reference_matches_the_command_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/cli.md");
        let text = std::fs::read_to_string(path).expect("docs/cli.md exists");
        for spec in COMMANDS {
            let heading = format!("## pimsim {}", spec.name);
            let start = text
                .find(&heading)
                .unwrap_or_else(|| panic!("docs/cli.md has no `{heading}` section"));
            let body = &text[start + heading.len()..];
            let body = match body.find("\n## ") {
                Some(end) => &body[..end],
                None => body,
            };
            let mut documented = std::collections::BTreeSet::new();
            let mut rest = body;
            while let Some(pos) = rest.find("--") {
                rest = &rest[pos + 2..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                // Skip table rules (`|---|`) and empty matches; keep
                // real option names.
                if !name.is_empty() && !name.starts_with('-') {
                    documented.insert(name);
                }
            }
            let mut expected: std::collections::BTreeSet<String> = spec
                .value_options()
                .iter()
                .chain(spec.flags)
                .map(|s| s.to_string())
                .collect();
            expected.remove("help"); // documented once, in the intro
            assert_eq!(
                documented, expected,
                "docs/cli.md section `{heading}` disagrees with the command's vocabulary"
            );
        }
    }

    #[test]
    fn usage_and_vocabularies_agree() {
        let mut accepted = std::collections::BTreeSet::new();
        for spec in COMMANDS {
            accepted.extend(spec.value_options());
            accepted.extend(spec.flags.iter().copied());
        }
        // Everything the help text advertises is accepted somewhere...
        for name in usage_options() {
            if name == "help" {
                continue; // `pimsim --help` is handled before parsing
            }
            assert!(
                accepted.contains(name.as_str()),
                "USAGE advertises --{name} but no command accepts it"
            );
        }
        // ...and everything accepted is documented.
        for name in accepted {
            if name == "help" {
                continue;
            }
            assert!(
                USAGE.contains(&format!("--{name}")),
                "--{name} is accepted but undocumented in USAGE"
            );
        }
    }
}
