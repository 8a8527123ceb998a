//! `mesh-traffic`: the machine model used the other way — NoC, transfer
//! channels and rendezvous busy, ROB scan and compute units idle.

use std::fmt::Write as _;

use pimsim::isa::asm::assemble;
use pimsim::isa::ProgramLimits;
use pimsim::prelude::*;
use pimsim::sim::{Noc, NocCosts};

use super::{event_chain_probe, simulate, Ctx, Dominant, Job, Prepared, Size, Workload};
use crate::digest::sim_digest;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Mesh edge of the paper chip.
const MESH: usize = 8;
/// Cores on the mesh.
const CORES: usize = MESH * MESH;
/// Messages each traffic pattern injects (rounded down to whole rounds).
const MESSAGES_FULL: usize = 25_000;
/// Messages per pattern under `--selftest`.
const MESSAGES_SELFTEST: usize = 1_000;
/// Message payloads, in elements; one is drawn per round.
const LENGTHS: [u32; 4] = [64, 128, 256, 512];
/// Local-memory offset messages land at (clear of the send buffer).
const RECV_AT: u32 = 2048;
/// Virtual-channel counts each program is simulated under.
const VCS: [u32; 2] = [1, 2];
/// Messages in the standalone `Noc::message` probe.
const NOC_PROBE_MESSAGES: u64 = 200_000;

/// See [`Workload::why`].
pub struct MeshTraffic;

impl Workload for MeshTraffic {
    fn name(&self) -> &'static str {
        "mesh-traffic"
    }

    fn why(&self) -> &'static str {
        "seeded SEND/RECV programs (permutation rounds, transpose, all-to-one, neighbour) on the 8x8 mesh under 4 routings x 2 VC counts: NoC, channels and rendezvous dominate; ROB scan and compute units idle"
    }

    fn dominant(&self) -> Dominant {
        Dominant::Layer("core")
    }

    fn setup(&self, ctx: &Ctx, t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        let target = match ctx.size {
            Size::Full => MESSAGES_FULL,
            Size::Selftest => MESSAGES_SELFTEST,
        };
        let arch = t.span("arch.paper_default", "", |_| ArchConfig::paper_default());
        let limits = ProgramLimits {
            cores: arch.resources.cores(),
            xbars_per_core: arch.resources.xbars_per_core,
            local_mem_elems: arch.resources.local_mem_elems(),
            global_mem_elems: arch.resources.global_mem_elems(),
        };
        let mut programs = Vec::new();
        for traffic in generate(ctx.seed, target) {
            let name = format!("{}.m{}", traffic.pattern, traffic.messages);
            let program = t.span_counted("isa.assemble", &name, |_| {
                let out = assemble(&traffic.text).map_err(|e| format!("assemble {name}: {e}"));
                let instrs = out.as_ref().map_or(0, |p| p.total_instructions() as u64);
                (out, vec![("instructions", instrs)])
            })?;
            t.span("isa.validate", &name, |_| program.validate(&limits))
                .map_err(|e| format!("validate {name}: {e}"))?;
            let analysis = t.span("analyze.check", &name, |_| analyze(&program, &arch));
            if analysis.has_errors() || !analysis.rendezvous.complete {
                return Err(format!(
                    "generated traffic {name} is not analysis-clean: {}",
                    analysis.summary()
                ));
            }
            programs.push((name, traffic.messages as u64, program));
        }
        let archs = RoutingPolicy::ALL
            .into_iter()
            .flat_map(|routing| {
                VCS.map(|vcs| {
                    let arch = ArchConfig::paper_default()
                        .with_routing(routing)
                        .with_virtual_channels(vcs);
                    (format!("{}/vc{vcs}", routing.name()), arch)
                })
            })
            .collect();
        Ok(Box::new(MeshState {
            seed: ctx.seed,
            programs,
            archs,
        }))
    }
}

struct MeshState {
    seed: u64,
    programs: Vec<(String, u64, Program)>,
    archs: Vec<(String, ArchConfig)>,
}

impl Prepared for MeshState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (pattern, messages, program) in &self.programs {
            for (label, arch) in &self.archs {
                let name = format!("{pattern}/{label}");
                jobs.push(t.job(&name, |t| {
                    match simulate("core.simulate", arch, program, &name, t) {
                        Ok(r) => {
                            // Every message is one send and one recv.
                            let check = if r.class_counts[2] == messages * 2 {
                                Ok(())
                            } else {
                                Err(format!(
                                    "{} transfer instructions retired, want {}",
                                    r.class_counts[2],
                                    messages * 2
                                ))
                            };
                            Job::done(name.as_str(), sim_digest(&r), check)
                        }
                        Err(e) => Job::failed(name.as_str(), e),
                    }
                }));
            }
        }
        jobs
    }

    /// The fabric with no machine around it: seeded uniform traffic
    /// straight into `Noc::message`, per routing policy. The gap between
    /// this ns/msg and the pass's host time per message is what the
    /// transfer unit, channels and rendezvous cost on top of the mesh.
    fn probes(&mut self, t: &mut Tracer) {
        event_chain_probe(t);
        let mut rng = Rng::new(self.seed, 0x0c);
        let msgs: Vec<(u16, u16, u32)> = (0..NOC_PROBE_MESSAGES)
            .map(|_| {
                (
                    rng.below(CORES as u64) as u16,
                    rng.below(CORES as u64) as u16,
                    rng.below(1024) as u32 + 1,
                )
            })
            .collect();
        for routing in RoutingPolicy::ALL {
            let arch = ArchConfig::paper_default().with_routing(routing);
            t.span_counted("core.noc_drive", routing.name(), |_| {
                let costs = NocCosts::new(&arch);
                let mut noc = Noc::for_arch(&arch);
                let mut sum = 0u64;
                for (i, &(from, to, elems)) in msgs.iter().enumerate() {
                    let start = SimTime::from_ns(i as u64);
                    sum = sum.wrapping_add(noc.message(from, to, elems, start, &costs).as_ps());
                }
                std::hint::black_box(sum);
                ((), vec![("msgs", NOC_PROBE_MESSAGES)])
            });
        }
    }
}

/// One generated traffic program, as assembly text.
pub struct Traffic {
    /// `perm`, `transpose`, `all2one` or `neighbour`.
    pub pattern: &'static str,
    /// Messages the program injects.
    pub messages: usize,
    /// The assembly source.
    pub text: String,
}

/// Per-core instruction text under construction.
struct Cores(Vec<String>);

impl Cores {
    fn new() -> Cores {
        Cores(vec![String::new(); CORES])
    }

    fn send(&mut self, from: usize, to: usize, len: u32) {
        let _ = writeln!(self.0[from], "send core{to}, [r0+0], {len}, tag=1");
    }

    fn recv(&mut self, at: usize, from: usize, len: u32) {
        let _ = writeln!(self.0[at], "recv core{from}, [r0+{RECV_AT}], {len}, tag=1");
    }

    /// The whole program; cores that never communicate are left out.
    fn finish(self) -> String {
        let mut text = String::new();
        for (core, body) in self.0.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            let _ = write!(text, ".core {core}\n{body}halt\n");
        }
        text
    }
}

/// The four traffic programs for `seed`, each injecting about `target`
/// messages. Round structure is fixed per pattern; the seed draws the
/// permutation of every `perm` round and every round's payload length.
pub fn generate(seed: u64, target: usize) -> Vec<Traffic> {
    let mut out = Vec::new();
    let mut build = |pattern: &'static str,
                     stream: u64,
                     per_round: usize,
                     round: &mut dyn FnMut(&mut Cores, &mut Rng, u32)| {
        let mut rng = Rng::new(seed, stream);
        let mut cores = Cores::new();
        let rounds = (target / per_round).max(1);
        for _ in 0..rounds {
            let len = LENGTHS[rng.below(LENGTHS.len() as u64) as usize];
            round(&mut cores, &mut rng, len);
        }
        out.push(Traffic {
            pattern,
            messages: rounds * per_round,
            text: cores.finish(),
        });
    };

    // Uniform-random permutation rounds: every core sends to a random
    // peer and receives from another; a fresh single-cycle permutation
    // (so never to itself) per round.
    build("perm", 1, CORES, &mut |cores, rng, len| {
        let to = rng.cyclic_permutation(CORES);
        let mut from = vec![0; CORES];
        for (c, &peer) in to.iter().enumerate() {
            from[peer] = c;
        }
        for c in 0..CORES {
            cores.send(c, to[c], len);
            cores.recv(c, from[c], len);
        }
    });

    // Transpose hotspot: (r, c) exchanges with (c, r); under XY every
    // flow funnels through the links around the diagonal.
    build("transpose", 2, CORES - MESH, &mut |cores, _, len| {
        for r in 0..MESH {
            for c in (0..MESH).filter(|&c| c != r) {
                let (id, peer) = (r * MESH + c, c * MESH + r);
                cores.send(id, peer, len);
                cores.recv(id, peer, len);
            }
        }
    });

    // All-to-one: every core streams to core 0, which drains them round
    // robin — one ejection port and one receiver's channels saturate.
    build("all2one", 3, CORES - 1, &mut |cores, _, len| {
        for c in 1..CORES {
            cores.send(c, 0, len);
            cores.recv(0, c, len);
        }
    });

    // Nearest neighbour: every core exchanges with each mesh neighbour —
    // one-hop routes, so routing policy should not matter and link
    // contention is minimal; rendezvous bookkeeping is what is left.
    let neighbours = |id: usize| {
        let (r, c) = (id / MESH, id % MESH);
        let mut n = Vec::with_capacity(4);
        if c + 1 < MESH {
            n.push(id + 1);
        }
        if c > 0 {
            n.push(id - 1);
        }
        if r + 1 < MESH {
            n.push(id + MESH);
        }
        if r > 0 {
            n.push(id - MESH);
        }
        n
    };
    let links = (0..CORES).map(|id| neighbours(id).len()).sum();
    build("neighbour", 4, links, &mut |cores, _, len| {
        for id in 0..CORES {
            for peer in neighbours(id) {
                cores.send(id, peer, len);
            }
            for peer in neighbours(id) {
                cores.recv(id, peer, len);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(seed: u64) -> Vec<String> {
        generate(seed, 2_000).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn same_seed_same_assembly_bytes_other_seed_differs() {
        assert_eq!(texts(1), texts(1));
        let (a, b) = (texts(1), texts(2));
        for (pattern, (a, b)) in a.iter().zip(&b).enumerate() {
            assert_ne!(a, b, "pattern {pattern} ignores the seed");
        }
    }

    #[test]
    fn every_pattern_assembles_and_counts_its_messages() {
        for traffic in generate(3, 2_000) {
            let program = assemble(&traffic.text).expect("assembles");
            let sends = traffic.text.matches("send ").count();
            let recvs = traffic.text.matches("recv ").count();
            assert_eq!(sends, traffic.messages, "{}", traffic.pattern);
            assert_eq!(recvs, traffic.messages, "{}", traffic.pattern);
            // Whole rounds only: at most one round (224 messages for
            // `neighbour`) short of the target.
            assert!(traffic.messages > 1_776 && traffic.messages <= 2_000);
            // sends + recvs + one halt per communicating core
            assert!(program.total_instructions() > 2 * traffic.messages);
        }
    }
}
