#![warn(missing_docs)]

//! # eim-bitpack
//!
//! Log encoding (bit-packing) as used by eIM (§3.1, Figure 1): every value of
//! an array is stored with exactly `nb = ceil(log2(x_max + 1))` bits, with
//! values allowed to span container boundaries. The paper packs into 32-bit
//! containers; we use 64-bit words — the natural atomic width on modern
//! hosts — which encodes the identical bit stream and halves the boundary
//! crossings.
//!
//! Three layers:
//! * [`PackedArray`] — immutable packed array, built in one pass.
//! * [`AtomicPackedArray`] — the thread-safe variant the paper needs while
//!   many GPU blocks concurrently append RRR sets: disjoint slots can be
//!   written from different threads without locks.
//! * [`PackedCsc`] — a whole CSC graph (offsets + in-neighbors packed,
//!   weights either plain or derived) with the memory accounting behind
//!   Figure 4 / §4.2.
//!
//! ```
//! use eim_bitpack::PackedArray;
//!
//! // The Figure 1 example: five integers, max 123 -> 7 bits each.
//! let a = PackedArray::from_values(&[5, 123, 99, 43, 7]);
//! assert_eq!(a.bits_per_value(), 7);
//! assert_eq!(a.get(1), 123);
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 123, 99, 43, 7]);
//! ```

mod atomic;
mod buf;
mod csc;
mod mem;
mod nbits;
mod packed;
mod search;

pub use atomic::AtomicPackedArray;
pub use buf::PackedBuf;
pub use csc::{PackedCsc, WeightStorage};
pub use mem::MemoryReport;
pub use nbits::bits_for;
pub use packed::PackedArray;
pub use search::binary_search_packed;
