//! `cli-pipeline`: the paper's decoupled, file-based flow through the
//! release `pimsim` binary, timed from process start to last byte out.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use pimsim::isa::asm::{assemble, disassemble};
use pimsim::prelude::*;

use super::{compile, simulate, zoo_network, Ctx, Dominant, Job, Prepared, Size, Workload};
use crate::digest::Fnv;
use crate::rss;
use crate::trace::Tracer;

/// Networks the five-command pipeline runs on.
const NETWORKS: [&str; 3] = ["lenet", "resnet18", "vgg8"];
/// The self-test network.
const SELFTEST: [&str; 1] = ["tiny_cnn"];

/// The five commands of one network's pipeline; `{n}` is the network.
const COMMANDS: [(&str, &[&str]); 5] = [
    ("run", &["run", "--network", "{n}", "--json"]),
    (
        "compile",
        &[
            "compile",
            "--network",
            "{n}",
            "--out",
            "{n}.p.json",
            "--asm",
            "{n}.p.s",
        ],
    ),
    ("check", &["check", "{n}.p.json", "--format", "json"]),
    ("asm", &["asm", "{n}.p.s", "--out", "{n}.q.json"]),
    ("disasm", &["disasm", "{n}.q.json"]),
];

/// See [`Workload::why`].
pub struct CliPipeline;

impl Workload for CliPipeline {
    fn name(&self) -> &'static str {
        "cli-pipeline"
    }

    fn why(&self) -> &'static str {
        "spawns the release pimsim binary for run/compile/check/asm/disasm on 3 networks, process start to last byte out: isa (de)serialisation and cli do most of the work, core under 10 %"
    }

    fn dominant(&self) -> Dominant {
        Dominant::IsaAndProcessOverhead
    }

    fn setup(&self, ctx: &Ctx, _t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        if !ctx.pimsim_bin.is_file() {
            return Err(format!(
                "{} not found: run through benchmark/run.sh, which builds it",
                ctx.pimsim_bin.display()
            ));
        }
        // Children must share the CPU whose clock state the harness
        // measures (see `pin`); unpinned, the numbers are only noisier.
        if let Err(e) = crate::pin::pin_to_current_cpu() {
            eprintln!("cli-pipeline: running unpinned: {e}");
        }
        let dir = ctx
            .out_dir
            .join(format!("cli-pipeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let networks: &[&str] = match ctx.size {
            Size::Full => &NETWORKS,
            Size::Selftest => &SELFTEST,
        };
        Ok(Box::new(CliState {
            bin: ctx.pimsim_bin.clone(),
            dir,
            networks,
        }))
    }
}

struct CliState {
    bin: PathBuf,
    dir: PathBuf,
    networks: &'static [&'static str],
}

impl Drop for CliState {
    fn drop(&mut self) {
        // Scratch files only; a leftover directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl CliState {
    /// Spawns one command and reads its stdout to the end. Returns the
    /// stdout hash and, for `run`, the event count its JSON reports.
    fn spawn(&self, args: &[String]) -> Result<(String, u64), String> {
        let mut child = Command::new(&self.bin)
            .args(args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut hash = Fnv::default();
        let mut head = Vec::new();
        let mut buf = vec![0u8; 1 << 16];
        let read = loop {
            match stdout.read(&mut buf) {
                Ok(0) => break Ok(()),
                Ok(n) => {
                    hash.write(&buf[..n]);
                    if head.len() < 4096 {
                        head.extend_from_slice(&buf[..n.min(4096)]);
                    }
                }
                Err(e) => break Err(format!("read stdout: {e}")),
            }
        };
        // Always reap the child, also after a failed read.
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        read?;
        if !status.success() {
            return Err(format!("pimsim {} exited with {status}", args.join(" ")));
        }
        let events = std::str::from_utf8(&head)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(text.trim()).ok())
            .and_then(|v| v["events"].as_u64())
            .unwrap_or(0);
        Ok((hash.hex(), events))
    }
}

fn args_for(template: &[&str], network: &str) -> Vec<String> {
    template.iter().map(|a| a.replace("{n}", network)).collect()
}

impl Prepared for CliState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        let mut jobs = Vec::new();
        for network in self.networks {
            for (command, template) in COMMANDS {
                let name = format!("{command}:{network}");
                let args = args_for(template, network);
                jobs.push(t.job(&name, |t| {
                    let out = t.span_counted("cli.process", &name, |_| {
                        let out = self.spawn(&args);
                        let events = out.as_ref().map_or(0, |o| o.1);
                        (out, vec![("events", events)])
                    });
                    match out {
                        Ok((digest, _)) => Job::done(name.as_str(), digest, Ok(())),
                        Err(e) => Job::failed(name.as_str(), e),
                    }
                }));
            }
        }
        jobs
    }

    /// Replays every child command in-process, one `harness.replay` span
    /// per command with a span around each library call the command
    /// makes, so a child's wall clock splits into library time per layer
    /// and the rest: process start, argument parsing, file and pipe I/O,
    /// page faults on a cold heap, exit.
    fn probes(&mut self, t: &mut Tracer) {
        for network in self.networks {
            for (command, _) in COMMANDS {
                let name = format!("{command}:{network}");
                t.span("harness.replay", &name, |t| {
                    if let Err(e) = self.replay(command, network, t) {
                        eprintln!("cli-pipeline: in-process replay of {name} failed: {e}");
                    }
                });
            }
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        rss::children_peak_mb().ok()
    }
}

impl CliState {
    fn read(&self, file: String, t: &mut Tracer) -> Result<String, String> {
        let path = self.dir.join(file);
        t.span("harness.io", "read", |_| std::fs::read_to_string(&path))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn write(&self, file: String, text: &str, t: &mut Tracer) -> Result<(), String> {
        let path = self.dir.join(file);
        t.span("harness.io", "write", |_| std::fs::write(&path, text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// What `crates/cli` does for `command`, call for call.
    fn replay(&self, command: &str, network: &str, t: &mut Tracer) -> Result<(), String> {
        let arch = t.span("arch.paper_default", "", |_| ArchConfig::paper_default());
        let compiled = |t: &mut Tracer| {
            let net = zoo_network(network, pimsim::sweep::default_resolution(network), t)?;
            compile(&arch, &net, network, t)
        };
        let to_json = |program: &Program, t: &mut Tracer| {
            t.span_counted("isa.to_json", network, |_| {
                let text = program.to_json();
                let bytes = text.len() as u64;
                (text, vec![("bytes", bytes)])
            })
        };
        let from_json = |text: &str, t: &mut Tracer| {
            t.span_counted("isa.from_json", network, |_| {
                let out = Program::from_json(text).map_err(|e| e.to_string());
                (out, vec![("bytes", text.len() as u64)])
            })
        };
        let disasm = |program: &Program, t: &mut Tracer| {
            t.span_counted("isa.disassemble", network, |_| {
                let text = disassemble(program);
                (
                    text,
                    vec![("instructions", program.total_instructions() as u64)],
                )
            })
        };
        match command {
            "run" => {
                let program = compiled(t)?;
                let report = simulate("core.simulate", &arch, &program, network, t)?;
                std::hint::black_box(report.avg_power_w());
            }
            "compile" => {
                let program = compiled(t)?;
                let json = to_json(&program, t);
                self.write(format!("{network}.replay.p.json"), &json, t)?;
                let text = disasm(&program, t);
                self.write(format!("{network}.replay.p.s"), &text, t)?;
            }
            "check" => {
                let text = self.read(format!("{network}.p.json"), t)?;
                let program = from_json(&text, t)?;
                let analysis = t.span("analyze.check", network, |_| analyze(&program, &arch));
                std::hint::black_box(t.span("analyze.to_json", network, |_| analysis.to_json()));
            }
            "asm" => {
                let text = self.read(format!("{network}.p.s"), t)?;
                let program = t.span_counted("isa.assemble", network, |_| {
                    let out = assemble(&text).map_err(|e| e.to_string());
                    let instrs = out.as_ref().map_or(0, |p| p.total_instructions() as u64);
                    (out, vec![("instructions", instrs)])
                })?;
                let json = to_json(&program, t);
                self.write(format!("{network}.replay.q.json"), &json, t)?;
            }
            "disasm" => {
                let text = self.read(format!("{network}.q.json"), t)?;
                let program = from_json(&text, t)?;
                std::hint::black_box(disasm(&program, t));
            }
            other => return Err(format!("no replay for `{other}`")),
        }
        Ok(())
    }
}
