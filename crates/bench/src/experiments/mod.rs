//! One module per table/figure of the paper, each regenerating its data
//! over the simulated testbed.

use fluidicl_hetsim::MachineConfig;

use crate::table::Table;

mod ablation;
mod extended;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig18;
mod fig2;
mod fig3;
mod ndev;
mod overall;
mod portability;
mod table1;
mod table2;
mod table3;

/// Output of one experiment: rendered tables plus free-form notes about
/// how the measured shape compares with the paper.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"fig2"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Data tables.
    pub tables: Vec<Table>,
    /// Observations: the paper's expectation and what the run showed.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders the result as text (tables + notes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### [{}] {}\n\n", self.id, self.title));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// An experiment of the paper's evaluation.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Identifier used on the `repro` command line.
    pub id: &'static str,
    /// Title, matching the paper's table/figure caption.
    pub title: &'static str,
    /// Runs the experiment on a machine configuration.
    pub run: fn(&MachineConfig) -> ExperimentResult,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

/// All experiments, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            title: "Figure 2: normalized time vs GPU work allocation (ATAX, SYRK)",
            run: fig2::run,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3: SYRK static-split curves for two input sizes",
            run: fig3::run,
        },
        Experiment {
            id: "table1",
            title: "Table 1: BICG kernel running times on each device",
            run: table1::run,
        },
        Experiment {
            id: "table2",
            title: "Table 2: benchmark inventory (sizes, kernels, work-groups)",
            run: table2::run,
        },
        Experiment {
            id: "overall",
            title: "Figure 13: overall performance of FluidiCL vs CPU/GPU/OracleSP",
            run: overall::run,
        },
        Experiment {
            id: "fig14",
            title: "Figure 14: SYRK across input sizes",
            run: fig14::run,
        },
        Experiment {
            id: "fig15",
            title: "Figure 15: effect of work-group abort placement and unrolling",
            run: fig15::run,
        },
        Experiment {
            id: "table3",
            title: "Table 3: CORR with online profiling over kernel versions",
            run: table3::run,
        },
        Experiment {
            id: "fig16",
            title: "Figure 16: comparison with SOCL (eager and dmda)",
            run: fig16::run,
        },
        Experiment {
            id: "fig17",
            title: "Figure 17: sensitivity to initial chunk size",
            run: fig17::run,
        },
        Experiment {
            id: "fig18",
            title: "Figure 18: sensitivity to chunk step size",
            run: fig18::run,
        },
        Experiment {
            id: "ablation",
            title: "Extension: host-side optimization ablation (pool, location tracking, wg split)",
            run: ablation::run,
        },
        Experiment {
            id: "portability",
            title: "Extension: portability of the unchanged runtime across machines",
            run: portability::run,
        },
        Experiment {
            id: "extended",
            title: "Extension: workloads beyond the paper's suite (MVT, GEMM, 2MM)",
            run: extended::run,
        },
        Experiment {
            id: "ndev",
            title: "Extension: N-device scaling with a mid-range peer GPU",
            run: ndev::run,
        },
    ]
}

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = experiments();
        assert_eq!(all.len(), 15);
        let mut ids: Vec<_> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15, "experiment ids must be unique");
    }

    #[test]
    fn find_works() {
        assert!(find("fig2").is_some());
        assert!(find("nope").is_none());
    }
}
