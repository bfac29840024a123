//! Motion and Presence matrices (Section IV).
//!
//! Both matrices are odd-sized squares centred on the cell of the block
//! that is supposed to move.  Row 0 is the *northernmost* row and column 0
//! the westernmost column, matching how the matrices are written in the
//! paper (Eqs. 1–5).

use crate::event::EventCode;
use std::fmt;

/// A cell coordinate inside a local matrix: `col` grows eastwards, `row`
/// grows southwards (row 0 is the north row).  This matches the `x,y`
/// pairs of the XML capability file (Fig. 7), where the east-sliding move
/// is written `from="1,1" to="2,1"`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MatrixCoord {
    /// Column index (0 = west).
    pub col: usize,
    /// Row index (0 = north).
    pub row: usize,
}

impl MatrixCoord {
    /// Creates a coordinate.
    pub const fn new(col: usize, row: usize) -> Self {
        MatrixCoord { col, row }
    }
}

impl fmt::Display for MatrixCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.col, self.row)
    }
}

/// Errors building a matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatrixError {
    /// The size is not an odd number at least 3 (and, for a Motion
    /// Matrix, at most [`MAX_MOTION_SIZE`]).
    BadSize(usize),
    /// The number of entries does not match `size * size`.
    BadEntryCount {
        /// Expected number of entries.
        expected: usize,
        /// Number of entries actually provided.
        got: usize,
    },
    /// An entry is not a valid event code.
    BadCode(u8),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::BadSize(s) => write!(
                f,
                "matrix size {s} must be odd and >= 3 (a Motion Matrix at most {MAX_MOTION_SIZE})"
            ),
            MatrixError::BadEntryCount { expected, got } => {
                write!(f, "expected {expected} entries, got {got}")
            }
            MatrixError::BadCode(c) => write!(f, "invalid event code {c}"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Largest Motion Matrix side: a compiled rule lowers its window to
/// one `u64` bitmask per event class (at most 8×8 cells), and sides are
/// odd.
pub const MAX_MOTION_SIZE: usize = 7;

/// A Motion Matrix: the event expected at every cell of the local window
/// while the rule executes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MotionMatrix {
    size: usize,
    entries: Vec<EventCode>,
}

impl MotionMatrix {
    /// Builds a matrix from numeric codes in row-major order (north row
    /// first), as they are written in the paper and in the XML file.
    pub fn from_codes(size: usize, codes: &[u8]) -> Result<Self, MatrixError> {
        check_motion_size(size)?;
        if codes.len() != size * size {
            return Err(MatrixError::BadEntryCount {
                expected: size * size,
                got: codes.len(),
            });
        }
        let entries = codes
            .iter()
            .map(|&c| EventCode::from_code(c).ok_or(MatrixError::BadCode(c)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MotionMatrix { size, entries })
    }

    /// Builds a matrix from event codes in row-major order.
    pub fn from_events(size: usize, events: Vec<EventCode>) -> Result<Self, MatrixError> {
        check_motion_size(size)?;
        if events.len() != size * size {
            return Err(MatrixError::BadEntryCount {
                expected: size * size,
                got: events.len(),
            });
        }
        Ok(MotionMatrix {
            size,
            entries: events,
        })
    }

    /// Side length of the square matrix.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The coordinate of the central entry.
    pub fn center(&self) -> MatrixCoord {
        MatrixCoord::new(self.size / 2, self.size / 2)
    }

    /// The event at the given coordinate.
    pub fn get(&self, coord: MatrixCoord) -> EventCode {
        self.entries[coord.row * self.size + coord.col]
    }

    /// Iterates over `(coord, event)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (MatrixCoord, EventCode)> + '_ {
        let size = self.size;
        self.entries
            .iter()
            .enumerate()
            .map(move |(i, &e)| (MatrixCoord::new(i % size, i / size), e))
    }

    /// Numeric codes in row-major order (used by the XML writer).
    pub fn codes(&self) -> Vec<u8> {
        self.entries.iter().map(|e| e.code()).collect()
    }

    /// The `MM ⊗ MP` operator of the paper: applies Table II entry-wise
    /// and returns the boolean result matrix (Eq. 3 shows it filled with
    /// ones when the motion is valid).
    pub fn validation_matrix(&self, presence: &PresenceMatrix) -> Vec<bool> {
        assert_eq!(
            self.size, presence.size,
            "motion and presence matrices must have the same size"
        );
        self.entries
            .iter()
            .zip(presence.entries.iter())
            .map(|(e, &p)| e.compatible_with(p))
            .collect()
    }

    /// Whether the motion is valid for the given presence: true when every
    /// entry of [`MotionMatrix::validation_matrix`] is true.
    pub fn validates(&self, presence: &PresenceMatrix) -> bool {
        self.size == presence.size && self.validation_matrix(presence).iter().all(|&b| b)
    }

    /// Coordinates whose event is dynamic `BecomesEmpty` or `Handover`,
    /// i.e. the cells from which a block departs during the motion.
    pub fn departure_cells(&self) -> Vec<MatrixCoord> {
        self.iter()
            .filter(|(_, e)| matches!(e, EventCode::BecomesEmpty | EventCode::Handover))
            .map(|(c, _)| c)
            .collect()
    }

    /// Coordinates whose event is `BecomesOccupied` or `Handover`, i.e.
    /// the cells into which a block arrives during the motion.
    pub fn arrival_cells(&self) -> Vec<MatrixCoord> {
        self.iter()
            .filter(|(_, e)| matches!(e, EventCode::BecomesOccupied | EventCode::Handover))
            .map(|(c, _)| c)
            .collect()
    }
}

impl fmt::Debug for MotionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MotionMatrix {}x{} [", self.size, self.size)?;
        for row in 0..self.size {
            write!(f, "  ")?;
            for col in 0..self.size {
                write!(f, "{} ", self.get(MatrixCoord::new(col, row)))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for MotionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in 0..self.size {
            for col in 0..self.size {
                if col > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.get(MatrixCoord::new(col, row)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A Presence Matrix: the initial occupancy of every cell of the local
/// window (`true` = occupied by a block).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PresenceMatrix {
    size: usize,
    entries: Vec<bool>,
}

impl PresenceMatrix {
    /// Builds a presence matrix from 0/1 bits in row-major order (north
    /// row first).
    pub fn from_bits(size: usize, bits: &[u8]) -> Result<Self, MatrixError> {
        check_size(size)?;
        if bits.len() != size * size {
            return Err(MatrixError::BadEntryCount {
                expected: size * size,
                got: bits.len(),
            });
        }
        for &b in bits {
            if b > 1 {
                return Err(MatrixError::BadCode(b));
            }
        }
        Ok(PresenceMatrix {
            size,
            entries: bits.iter().map(|&b| b == 1).collect(),
        })
    }

    /// Builds a presence matrix from booleans in row-major order.
    pub fn from_bools(size: usize, bools: Vec<bool>) -> Result<Self, MatrixError> {
        check_size(size)?;
        if bools.len() != size * size {
            return Err(MatrixError::BadEntryCount {
                expected: size * size,
                got: bools.len(),
            });
        }
        Ok(PresenceMatrix {
            size,
            entries: bools,
        })
    }

    /// Builds the presence matrix from the nested rows returned by
    /// [`sb_grid::OccupancyGrid::presence_window`].
    pub fn from_window(window: &[Vec<bool>]) -> Result<Self, MatrixError> {
        let size = window.len();
        check_size(size)?;
        let mut entries = Vec::with_capacity(size * size);
        for row in window {
            if row.len() != size {
                return Err(MatrixError::BadEntryCount {
                    expected: size,
                    got: row.len(),
                });
            }
            entries.extend_from_slice(row);
        }
        Ok(PresenceMatrix { size, entries })
    }

    /// Side length of the square matrix.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The occupancy at the given coordinate.
    pub fn get(&self, coord: MatrixCoord) -> bool {
        self.entries[coord.row * self.size + coord.col]
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.entries.iter().filter(|&&b| b).count()
    }
}

impl fmt::Debug for PresenceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PresenceMatrix {}x{} [", self.size, self.size)?;
        for row in 0..self.size {
            write!(f, "  ")?;
            for col in 0..self.size {
                write!(f, "{} ", self.get(MatrixCoord::new(col, row)) as u8)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

fn check_size(size: usize) -> Result<(), MatrixError> {
    if size < 3 || size.is_multiple_of(2) {
        Err(MatrixError::BadSize(size))
    } else {
        Ok(())
    }
}

fn check_motion_size(size: usize) -> Result<(), MatrixError> {
    if size > MAX_MOTION_SIZE {
        Err(MatrixError::BadSize(size))
    } else {
        check_size(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The "east sliding" Motion Matrix of Eq. (1).
    fn mm_east_sliding() -> MotionMatrix {
        MotionMatrix::from_codes(3, &[2, 0, 0, 2, 4, 3, 2, 1, 1]).unwrap()
    }

    /// The Presence Matrix of Eq. (2).
    fn mp_eq2() -> PresenceMatrix {
        PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 1, 0, 1, 1, 1]).unwrap()
    }

    #[test]
    fn eq3_east_sliding_validates() {
        // Eq. (3): MM ⊗ MP is the all-ones matrix.
        let mm = mm_east_sliding();
        let mp = mp_eq2();
        assert_eq!(mm.validation_matrix(&mp), vec![true; 9]);
        assert!(mm.validates(&mp));
    }

    #[test]
    fn fig5_invalid_situations() {
        let mm = mm_east_sliding();
        // No support block under the destination cell.
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 1, 0, 1, 1, 0]).unwrap();
        assert!(!mm.validates(&mp));
        // Destination already occupied.
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 1, 1, 1, 1, 1]).unwrap();
        assert!(!mm.validates(&mp));
        // North of the destination occupied (the rule requires it free).
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 1, 1, 1, 0, 1, 1, 1]).unwrap();
        assert!(!mm.validates(&mp));
        // Central cell empty (no block to move).
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 0, 0, 1, 1, 1]).unwrap();
        assert!(!mm.validates(&mp));
    }

    #[test]
    fn eq4_eq5_east_carrying_validates() {
        // Eq. (4) and Eq. (5).
        let mm = MotionMatrix::from_codes(3, &[0, 0, 0, 4, 5, 3, 2, 1, 2]).unwrap();
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 1, 0, 1, 1, 0]).unwrap();
        assert!(mm.validates(&mp));
        // Without the carried block in the west the motion is still
        // compatible? No: code 4 at the west cell requires presence 1.
        let mp = PresenceMatrix::from_bits(3, &[0, 0, 0, 0, 1, 0, 1, 1, 0]).unwrap();
        assert!(!mm.validates(&mp));
    }

    #[test]
    fn departure_and_arrival_cells() {
        let mm = mm_east_sliding();
        assert_eq!(mm.departure_cells(), vec![MatrixCoord::new(1, 1)]);
        assert_eq!(mm.arrival_cells(), vec![MatrixCoord::new(2, 1)]);
        let carry = MotionMatrix::from_codes(3, &[0, 0, 0, 4, 5, 3, 2, 1, 2]).unwrap();
        assert_eq!(
            carry.departure_cells(),
            vec![MatrixCoord::new(0, 1), MatrixCoord::new(1, 1)]
        );
        assert_eq!(
            carry.arrival_cells(),
            vec![MatrixCoord::new(1, 1), MatrixCoord::new(2, 1)]
        );
    }

    #[test]
    fn center_is_the_middle_cell() {
        assert_eq!(mm_east_sliding().center(), MatrixCoord::new(1, 1));
        let mm5 = MotionMatrix::from_codes(5, &[2u8; 25]).unwrap();
        assert_eq!(mm5.center(), MatrixCoord::new(2, 2));
    }

    #[test]
    fn build_errors() {
        assert_eq!(
            MotionMatrix::from_codes(4, &[0; 16]).unwrap_err(),
            MatrixError::BadSize(4)
        );
        // The compiled window masks cap Motion Matrices at 7×7.
        assert!(MotionMatrix::from_codes(7, &[2; 49]).is_ok());
        assert_eq!(
            MotionMatrix::from_codes(9, &[2; 81]).unwrap_err(),
            MatrixError::BadSize(9)
        );
        assert_eq!(
            MotionMatrix::from_codes(3, &[0; 8]).unwrap_err(),
            MatrixError::BadEntryCount {
                expected: 9,
                got: 8
            }
        );
        assert_eq!(
            MotionMatrix::from_codes(3, &[0, 0, 0, 0, 9, 0, 0, 0, 0]).unwrap_err(),
            MatrixError::BadCode(9)
        );
        assert_eq!(
            PresenceMatrix::from_bits(3, &[0, 0, 0, 0, 2, 0, 0, 0, 0]).unwrap_err(),
            MatrixError::BadCode(2)
        );
        assert_eq!(
            PresenceMatrix::from_bits(1, &[1]).unwrap_err(),
            MatrixError::BadSize(1)
        );
    }

    #[test]
    fn from_window_round_trip() {
        let window = vec![
            vec![false, false, false],
            vec![true, true, false],
            vec![true, true, true],
        ];
        let mp = PresenceMatrix::from_window(&window).unwrap();
        assert_eq!(mp, mp_eq2());
        assert_eq!(mp.occupied_count(), 5);
    }

    #[test]
    fn display_formats_rows() {
        let mm = mm_east_sliding();
        assert_eq!(mm.to_string(), "2 0 0\n2 4 3\n2 1 1\n");
    }

    #[test]
    fn codes_round_trip() {
        let codes = [2, 0, 0, 2, 4, 3, 2, 1, 1];
        let mm = MotionMatrix::from_codes(3, &codes).unwrap();
        assert_eq!(mm.codes(), codes.to_vec());
    }
}
