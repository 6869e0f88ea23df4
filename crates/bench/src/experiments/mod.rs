//! One module per paper table/figure. Each exposes `run()`, which prints
//! the regenerated rows in the shape the paper reports.

pub mod concurrency;
pub mod datasets;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod optimizers;
pub mod scale;
pub mod table4;
pub mod table5;
pub mod table8;
pub mod wal;

use std::time::Duration;

/// Run `f` `n` times and keep the smallest duration it reports — the
/// standard way to strip scheduler noise from a deterministic measurement.
pub fn min_of(n: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..n.max(1)).map(|_| f()).min().expect("n >= 1")
}

/// All experiment ids in paper order.
pub const ALL: &[(&str, fn())] = &[
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("table4", table4::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("table5", table5::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("table8", table8::run),
    ("wal", wal::run),
    ("datasets", datasets::run),
    ("optimizers", optimizers::run),
    ("scale", scale::run),
    ("concurrency", concurrency::run),
];
