//! Crossbar group descriptors — the ISA's *group mechanism*.
//!
//! A weight matrix generally spans many crossbars. Crossbars that belong to
//! the same matrix **and consume the same input vector** form a *group*
//! (paper §II): one `MVM` instruction fires the whole group and all of its
//! crossbars operate in parallel. A matrix tiled into R row-blocks × C
//! col-blocks therefore becomes R groups of C crossbars each; the groups'
//! partial outputs are reduced with vector adds.

use serde::{Deserialize, Serialize};

use crate::error::IsaError;
use crate::instr::GroupId;

/// A dense row-major signed-8-bit weight matrix slice held by one group.
///
/// Weight values only matter to the simulator's *functional* mode; the
/// timing/energy model depends solely on the dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightMatrix {
    rows: u32,
    cols: u32,
    data: Vec<i8>,
}

impl WeightMatrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Validate`] if `data.len() != rows * cols`.
    pub fn new(rows: u32, cols: u32, data: Vec<i8>) -> Result<WeightMatrix, IsaError> {
        if data.len() != (rows as usize) * (cols as usize) {
            return Err(IsaError::Validate {
                core: None,
                pc: None,
                msg: format!(
                    "weight matrix data length {} does not match {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(WeightMatrix { rows, cols, data })
    }

    /// An all-zero matrix.
    pub fn zeros(rows: u32, cols: u32) -> WeightMatrix {
        WeightMatrix {
            rows,
            cols,
            data: vec![0; rows as usize * cols as usize],
        }
    }

    /// Row count (input dimension).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Column count (output dimension).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The weight at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: u32, col: u32) -> i8 {
        assert!(
            row < self.rows && col < self.cols,
            "weight index out of bounds"
        );
        self.data[row as usize * self.cols as usize + col as usize]
    }

    /// Sets the weight at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: u32, col: u32, w: i8) {
        assert!(
            row < self.rows && col < self.cols,
            "weight index out of bounds"
        );
        self.data[row as usize * self.cols as usize + col as usize] = w;
    }

    /// Row-major raw data.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Computes `out[j] = Σ_i input[i] * w[i][j]` with 64-bit accumulation,
    /// saturating each output to `i32`. This is the functional-mode MVM.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn mvm(&self, input: &[i32]) -> Vec<i32> {
        assert_eq!(
            input.len(),
            self.rows as usize,
            "mvm input length does not match matrix rows"
        );
        let cols = self.cols as usize;
        let mut acc = vec![0i64; cols];
        for (i, &x) in input.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let row = &self.data[i * cols..(i + 1) * cols];
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += x as i64 * w as i64;
            }
        }
        acc.into_iter()
            .map(|v| v.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
            .collect()
    }
}

/// Configuration of one crossbar group — the contents of a core's *mapping
/// register* for that group.
///
/// `xbar_ids` lists the physical crossbars (indices within the core's matrix
/// execution unit) that fire together; they must be disjoint across groups.
/// `input_len`/`output_len` give the logical slice dimensions; the timing
/// model derives ADC serialization from `output_len` and the crossbar count,
/// and the structure-hazard rule (paper Fig. 4 discussion) serializes
/// back-to-back `MVM`s that touch the same physical crossbars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Group id referenced by `MVM` instructions.
    pub id: GroupId,
    /// Logical input length (rows of the held slice).
    pub input_len: u32,
    /// Logical output length (columns of the held slice).
    pub output_len: u32,
    /// Physical crossbar indices within the core that fire in parallel.
    pub xbar_ids: Vec<u32>,
    /// Weight slice for functional simulation (`input_len × output_len`).
    /// `None` runs timing-only.
    pub weights: Option<WeightMatrix>,
}

impl GroupConfig {
    /// Creates a timing-only group configuration.
    pub fn new(id: GroupId, input_len: u32, output_len: u32, xbar_ids: Vec<u32>) -> GroupConfig {
        GroupConfig {
            id,
            input_len,
            output_len,
            xbar_ids,
            weights: None,
        }
    }

    /// Attaches functional weights.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Validate`] if the weight dimensions do not match
    /// `input_len × output_len`.
    pub fn with_weights(mut self, weights: WeightMatrix) -> Result<GroupConfig, IsaError> {
        if weights.rows() != self.input_len || weights.cols() != self.output_len {
            return Err(IsaError::Validate {
                core: None,
                pc: None,
                msg: format!(
                    "group {} weights are {}x{}, expected {}x{}",
                    self.id,
                    weights.rows(),
                    weights.cols(),
                    self.input_len,
                    self.output_len
                ),
            });
        }
        self.weights = Some(weights);
        Ok(self)
    }

    /// Number of physical crossbars in the group.
    pub fn xbar_count(&self) -> usize {
        self.xbar_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_matrix_shape_checked() {
        assert!(WeightMatrix::new(2, 3, vec![0; 6]).is_ok());
        assert!(WeightMatrix::new(2, 3, vec![0; 5]).is_err());
    }

    #[test]
    fn weight_matrix_accessors() {
        let mut m = WeightMatrix::zeros(2, 2);
        m.set(1, 0, -7);
        assert_eq!(m.get(1, 0), -7);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.data().len(), 4);
    }

    #[test]
    fn mvm_computes_dot_products() {
        // [1 2]   [5]   [1*5+2*6]   [17]
        // [3 4] x [6] = [3*5+4*6] = [39]  (column-major outputs)
        let m = WeightMatrix::new(2, 2, vec![1, 3, 2, 4]).unwrap();
        // rows are inputs: w[i][j]; data row-major: w00=1 w01=3 w10=2 w11=4
        // out[j] = sum_i in[i]*w[i][j]; in=[5,6]
        // out[0] = 5*1 + 6*2 = 17 ; out[1] = 5*3 + 6*4 = 39
        assert_eq!(m.mvm(&[5, 6]), vec![17, 39]);
    }

    #[test]
    fn mvm_saturates() {
        let m = WeightMatrix::new(1, 1, vec![127]).unwrap();
        assert_eq!(m.mvm(&[i32::MAX]), vec![i32::MAX]);
        assert_eq!(m.mvm(&[i32::MIN]), vec![i32::MIN]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn mvm_length_mismatch_panics() {
        let m = WeightMatrix::zeros(2, 2);
        let _ = m.mvm(&[1]);
    }

    #[test]
    fn group_weight_dims_validated() {
        let g = GroupConfig::new(GroupId(0), 2, 2, vec![0]);
        assert!(g.clone().with_weights(WeightMatrix::zeros(2, 2)).is_ok());
        assert!(g.with_weights(WeightMatrix::zeros(3, 2)).is_err());
    }
}
