//! Experiment harness regenerating every table and figure of the paper.
//!
//! The paper's evaluation consists of four tables (each with an (a) part at
//! `k = 5`, high fault rates, and a (b) part at `k = 1`, low fault rates)
//! comparing four schemes — Poisson-arrival, k-fault-tolerant, `A_D`
//! (ADT_DVS) and the proposed `A_D_S`/`A_D_C` — on the probability of
//! timely completion `P` and the energy consumption `E`:
//!
//! * **Table 1** — SCP cost variant (`ts = 2, tcp = 20`), baselines at `f1`;
//! * **Table 2** — SCP cost variant, baselines at `f2` (heavier tasks:
//!   `N = U·f2·D`);
//! * **Table 3** — CCP cost variant (`ts = 20, tcp = 2`), baselines at `f1`;
//! * **Table 4** — CCP cost variant, baselines at `f2`.
//!
//! A table's cells are two committed grid documents, one per part
//! (`specs/table{N}{a,b}.json`, embedded by [`eacp_spec::table_document`]
//! and parsed by [`tables::table_grids`]): the only definition of the
//! paper's cells. Here, [`tables::table_config`] reads each table's
//! parameters and `(U, λ, k)` rows off its documents, [`paper`] holds the
//! values transcribed from the paper, in document row order, and pairs
//! them with the documents' cells ([`paper::cells`], which `eacp csv`
//! matches reports against by cell address), [`runner`] regroups the
//! documents' grid reports into rows, [`render`] does the side-by-side
//! formatting, [`compare`] the error statistics and [`shape`] the
//! qualitative claims ("who wins, by roughly what factor") that a
//! successful reproduction must satisfy.
//!
//! Regenerate a table — on the grid path `eacp sweep` uses, through the
//! result store, the analytic tier and the queue/fleet placement — with:
//!
//! ```text
//! eacp table N [--reps 10000] [--store DIR] [--queue --workers W] [--out DIR]
//! ```
//!
//! The ablations beyond the tables are grid documents too
//! (`specs/ablation-*.json`), run with `eacp sweep --spec` and rendered
//! with `eacp csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod paper;
pub mod render;
pub mod runner;
pub mod shape;
pub mod tables;

pub use runner::{CellResult, SchemeResult, TableResult};
pub use tables::{
    table_config, table_grids, CellSpec, PaperScheme, TableConfig, TableId, TablePart,
};
