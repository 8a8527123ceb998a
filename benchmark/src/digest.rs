//! Digests of simulated statistics and output bytes.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical; the harness checks that by comparing a
//! digest per job against the first run of the same job in this process
//! and, at the default seed, against `expected.json`.

use pimsim::prelude::SimReport;

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h = Fnv::default();
    h.write(bytes);
    h.hex()
}

/// Incremental 64-bit FNV-1a, for output read in chunks.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one cycle-accurate run: exact latency, the bits of the total
/// energy, kernel events, dynamic instructions, and a hash over the
/// per-core and per-node statistics.
pub fn sim_digest(r: &SimReport) -> String {
    let mut detail = Fnv::default();
    for c in &r.per_core {
        detail.write(&c.dispatched.to_le_bytes());
        for t in [c.matrix_busy, c.vector_busy, c.transfer_busy] {
            detail.write(&t.as_ps().to_le_bytes());
        }
    }
    for n in &r.per_node {
        detail.write(&n.instructions.to_le_bytes());
        for t in [n.matrix_time, n.vector_time, n.comm_time] {
            detail.write(&t.as_ps().to_le_bytes());
        }
        detail.write(&n.energy.as_pj().to_bits().to_le_bytes());
    }
    for c in r.class_counts {
        detail.write(&c.to_le_bytes());
    }
    format!(
        "lat={}ps energy={:016x} events={} instr={} detail={}",
        r.latency.as_ps(),
        r.energy.total().as_pj().to_bits(),
        r.events,
        r.instructions,
        detail.hex()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.hex(), "85944171f73967e8");
    }

    #[test]
    fn sim_digest_is_stable_across_runs_and_sensitive_to_the_arch() {
        use pimsim::prelude::*;
        let arch = ArchConfig::paper_default();
        let net = pimsim::nn::zoo::by_name("tiny_cnn", 64).unwrap();
        let program = Compiler::new(&arch).compile(&net).unwrap().program;
        let a = sim_digest(&Simulator::new(&arch).run(&program).unwrap());
        let b = sim_digest(&Simulator::new(&arch).run(&program).unwrap());
        assert_eq!(a, b);
        let rob1 = arch.with_rob(1);
        assert_ne!(a, sim_digest(&Simulator::new(&rob1).run(&program).unwrap()));
    }
}
