//! Functional execution of resolved instructions.
//!
//! Dispatch checked every operand against memory: no address here clamps.
//!
//! Integer semantics are shared with `pimsim-nn`'s golden model (saturating
//! adds, i64 MVM accumulation clamped to i32, truncating average pooling,
//! Q8.8 sigmoid/tanh) so compiled programs can be checked bit-exactly.

use pimsim_isa::{GroupConfig, PoolOp, Resolved, VBinOp, VImmOp, VUnOp};
use pimsim_nn::{fixed_sigmoid, fixed_tanh};

/// A zero-initialized, lazily grown local memory of 32-bit elements.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    data: Vec<i32>,
}

impl Memory {
    /// Reads `len` elements at `addr` (reads past the high-water mark are
    /// zero, matching the zero-initialized scratchpad assumption).
    ///
    /// The scan runs in `u64` so `addr + len` near `u32::MAX` cannot wrap
    /// (a wrap would panic in debug builds and silently alias address 0 in
    /// release builds).
    pub fn read(&self, addr: u32, len: u32) -> Vec<i32> {
        (addr as u64..addr as u64 + len as u64)
            .map(|a| {
                usize::try_from(a)
                    .ok()
                    .and_then(|a| self.data.get(a))
                    .copied()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Reads a single element.
    pub fn get(&self, addr: u64) -> i32 {
        self.data.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes `values` at `addr`, growing as needed. An empty write
    /// touches nothing, wherever it points.
    pub fn write(&mut self, addr: u32, values: &[i32]) {
        if values.is_empty() {
            return;
        }
        let end = addr as usize + values.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[addr as usize..end].copy_from_slice(values);
    }

    /// Writes a single element at a 64-bit address.
    pub fn set(&mut self, addr: u64, value: i32) {
        let idx = addr as usize;
        if self.data.len() <= idx {
            self.data.resize(idx + 1, 0);
        }
        self.data[idx] = value;
    }
}

fn sat(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Executes a vector/matrix instruction's data movement on `mem`.
/// Transfers are handled by the machine (they touch two memories).
pub fn execute_local(r: &Resolved, mem: &mut Memory, groups: &[GroupConfig]) {
    match r {
        Resolved::Mvm {
            group, dst, src, ..
        } => {
            let g = &groups[group.as_usize()];
            if let Some(w) = &g.weights {
                let input = mem.read(*src, g.input_len);
                let out = w.mvm(&input);
                mem.write(*dst, &out);
            }
        }
        Resolved::VBin { op, dst, a, b, len } => {
            let va = mem.read(*a, *len);
            let vb = mem.read(*b, *len);
            let out: Vec<i32> = va
                .iter()
                .zip(&vb)
                .map(|(&x, &y)| match op {
                    VBinOp::Add => x.saturating_add(y),
                    VBinOp::Sub => x.saturating_sub(y),
                    VBinOp::Mul => sat(x as i64 * y as i64),
                    VBinOp::Max => x.max(y),
                    VBinOp::Min => x.min(y),
                })
                .collect();
            mem.write(*dst, &out);
        }
        Resolved::VImm {
            op,
            dst,
            src,
            imm,
            len,
        } => {
            let v = mem.read(*src, *len);
            let out: Vec<i32> = v
                .iter()
                .map(|&x| match op {
                    VImmOp::Add => x.saturating_add(*imm),
                    VImmOp::Mul => sat(x as i64 * *imm as i64),
                    // Arithmetic shift, amount masked to 5 bits.
                    VImmOp::Sra => x.wrapping_shr(*imm as u32),
                })
                .collect();
            mem.write(*dst, &out);
        }
        Resolved::VUn { op, dst, src, len } => {
            let v = mem.read(*src, *len);
            let out: Vec<i32> = v
                .iter()
                .map(|&x| match op {
                    VUnOp::Relu => x.max(0),
                    VUnOp::Sigmoid => fixed_sigmoid(x),
                    VUnOp::Tanh => fixed_tanh(x),
                    VUnOp::Copy => x,
                    VUnOp::Neg => x.saturating_neg(),
                    VUnOp::Abs => x.saturating_abs(),
                })
                .collect();
            mem.write(*dst, &out);
        }
        Resolved::VFill { dst, value, len } => {
            mem.write(*dst, &vec![*value; *len as usize]);
        }
        Resolved::VCopy2d {
            dst,
            src,
            block_len,
            blocks,
            src_stride,
            dst_stride,
        } => {
            for b in 0..*blocks {
                let s = *src as i64 + b as i64 * *src_stride as i64;
                let d = *dst as i64 + b as i64 * *dst_stride as i64;
                let block = mem.read(s as u32, *block_len);
                mem.write(d as u32, &block);
            }
        }
        Resolved::VPool {
            op,
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride,
        } => {
            let mut out = vec![0i32; *channels as usize];
            for (c, o) in out.iter_mut().enumerate() {
                let mut m = i32::MIN;
                let mut sum = 0i64;
                for wy in 0..*win_h {
                    for wx in 0..*win_w {
                        let a = *src as i64
                            + wy as i64 * *row_stride as i64
                            + wx as i64 * *channels as i64
                            + c as i64;
                        let v = mem.get(a as u64);
                        m = m.max(v);
                        sum += v as i64;
                    }
                }
                *o = match op {
                    PoolOp::Max => m,
                    PoolOp::Avg => sat(sum / (*win_w as i64 * *win_h as i64).max(1)),
                };
            }
            mem.write(*dst, &out);
        }
        Resolved::Send { .. }
        | Resolved::Recv { .. }
        | Resolved::GLoad { .. }
        | Resolved::GStore { .. } => {
            unreachable!("transfers are executed by the machine, not execute_local")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::{GroupId, WeightMatrix};

    #[test]
    fn memory_reads_unwritten_as_zero() {
        let mem = Memory::default();
        assert_eq!(mem.read(100, 3), vec![0, 0, 0]);
    }

    #[test]
    fn memory_read_near_u32_max_does_not_wrap() {
        // Regression: `addr + len` used to be computed in u32, panicking in
        // debug builds (and wrapping to address 0 in release) for reads
        // ending past u32::MAX.
        let mut mem = Memory::default();
        mem.write(0, &[41, 42, 43]);
        assert_eq!(mem.read(u32::MAX - 2, 8), vec![0; 8]);
        // The wrap would have aliased the data at address 0.
        assert!(mem.read(u32::MAX, 4).iter().all(|&v| v == 0));
    }

    #[test]
    fn memory_roundtrip() {
        let mut mem = Memory::default();
        mem.write(10, &[1, -2, 3]);
        assert_eq!(mem.read(9, 5), vec![0, 1, -2, 3, 0]);
        mem.set(1000, 42);
        assert_eq!(mem.get(1000), 42);
    }

    #[test]
    fn vbin_semantics() {
        let mut mem = Memory::default();
        mem.write(0, &[i32::MAX, 5, -3]);
        mem.write(10, &[1, 7, -4]);
        execute_local(
            &Resolved::VBin {
                op: VBinOp::Add,
                dst: 20,
                a: 0,
                b: 10,
                len: 3,
            },
            &mut mem,
            &[],
        );
        assert_eq!(mem.read(20, 3), vec![i32::MAX, 12, -7]);
        execute_local(
            &Resolved::VBin {
                op: VBinOp::Max,
                dst: 30,
                a: 0,
                b: 10,
                len: 3,
            },
            &mut mem,
            &[],
        );
        assert_eq!(mem.read(30, 3), vec![i32::MAX, 7, -3]);
    }

    #[test]
    fn mvm_uses_group_weights() {
        let mut mem = Memory::default();
        mem.write(0, &[5, 6]);
        let g = GroupConfig::new(GroupId(0), 2, 2, vec![0])
            .with_weights(WeightMatrix::new(2, 2, vec![1, 3, 2, 4]).unwrap())
            .unwrap();
        execute_local(
            &Resolved::Mvm {
                group: GroupId(0),
                dst: 10,
                src: 0,
                len: 2,
            },
            &mut mem,
            &[g],
        );
        assert_eq!(mem.read(10, 2), vec![17, 39]);
    }

    #[test]
    fn vpool_avg_truncates() {
        let mut mem = Memory::default();
        // 2x2 window, 1 channel, laid out rows of 2.
        mem.write(0, &[1, 2]);
        mem.write(2, &[2, 2]);
        execute_local(
            &Resolved::VPool {
                op: PoolOp::Avg,
                dst: 10,
                src: 0,
                channels: 1,
                win_w: 2,
                win_h: 2,
                row_stride: 2,
            },
            &mut mem,
            &[],
        );
        assert_eq!(mem.read(10, 1), vec![1]); // 7/4 -> 1
    }

    #[test]
    fn vcopy2d_strides() {
        let mut mem = Memory::default();
        mem.write(0, &[1, 2, 3, 4, 5, 6]);
        execute_local(
            &Resolved::VCopy2d {
                dst: 100,
                src: 0,
                block_len: 2,
                blocks: 3,
                src_stride: 2,
                dst_stride: 4,
            },
            &mut mem,
            &[],
        );
        assert_eq!(mem.read(100, 10), vec![1, 2, 0, 0, 3, 4, 0, 0, 5, 6]);
    }

    #[test]
    fn activations_match_golden_helpers() {
        let mut mem = Memory::default();
        mem.write(0, &[0, -100]);
        execute_local(
            &Resolved::VUn {
                op: VUnOp::Sigmoid,
                dst: 10,
                src: 0,
                len: 2,
            },
            &mut mem,
            &[],
        );
        assert_eq!(mem.read(10, 2), vec![fixed_sigmoid(0), fixed_sigmoid(-100)]);
    }
}
