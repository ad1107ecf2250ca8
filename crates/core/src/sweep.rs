//! Declarative parameter sweeps: cartesian grids over the three
//! configuration profiles plus seed replicates, enumerated into
//! independent, `Send` jobs for the fleet runner.
//!
//! The paper's figures are sweeps — load levels, ablations (PFC on/off,
//! DCQCN on/off, go-back-N vs go-back-0), buffer misconfigurations —
//! each cell an independent deterministic simulation. A [`SweepSpec`]
//! names each axis once and the enumeration does the bookkeeping:
//!
//! ```
//! use rocescale_core::sweep::{SweepAxis, SweepSpec};
//! use rocescale_core::CcKind;
//!
//! let spec = SweepSpec::new()
//!     .axis(SweepAxis::new("pfc")
//!         .variant("on", |p| p.fabric = p.fabric.clone().pfc(true))
//!         .variant("off", |p| p.fabric = p.fabric.clone().pfc(false)))
//!     .axis(SweepAxis::new("dcqcn")
//!         .variant("on", |p| p.transport = p.transport.cc(CcKind::Dcqcn))
//!         .variant("off", |p| p.transport = p.transport.cc(CcKind::Off)))
//!     .replicates(3);
//! let jobs = spec.jobs();
//! assert_eq!(jobs.len(), 2 * 2 * 3);
//! assert_eq!(jobs[0].labels, vec!["pfc=on", "dcqcn=on", "seed=1"]);
//! ```
//!
//! Enumeration order is load-bearing: axes vary in declaration order
//! (first axis outermost), replicates innermost, and every job carries
//! its `index` so the fleet can run jobs on any thread in any order and
//! still emit results in this exact order.

use std::sync::Arc;

use rocescale_cc::CcKind;

use crate::profiles::{FabricProfile, FaultProfile, TransportProfile};

/// One point in configuration space: the three profiles plus the RNG
/// seed. Axis variants mutate a clone of the spec's base point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Switch-side configuration.
    pub fabric: FabricProfile,
    /// NIC-side configuration.
    pub transport: TransportProfile,
    /// Fault injection.
    pub faults: FaultProfile,
    /// RNG seed (replicates differ only here).
    pub seed: u64,
}

impl SweepPoint {
    /// The paper-default configuration at seed 1.
    pub fn paper_default() -> SweepPoint {
        SweepPoint {
            fabric: FabricProfile::paper_default(),
            transport: TransportProfile::paper_default(),
            faults: FaultProfile::paper_default(),
            seed: 1,
        }
    }
}

/// A labelled mutation of a [`SweepPoint`] — one value on an axis.
#[derive(Clone)]
pub struct SweepVariant {
    /// Short value label, e.g. `"on"`, `"1/64"`.
    pub label: String,
    apply: Arc<dyn Fn(&mut SweepPoint) + Send + Sync>,
}

impl std::fmt::Debug for SweepVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SweepVariant({:?})", self.label)
    }
}

/// One sweep dimension: a named axis with an ordered list of variants.
#[derive(Debug, Clone)]
pub struct SweepAxis {
    /// Axis name, e.g. `"pfc"` — combined with the variant label into
    /// `"pfc=on"` job labels.
    pub name: String,
    /// The axis values, in declaration order.
    pub variants: Vec<SweepVariant>,
}

impl SweepAxis {
    /// An empty axis named `name`.
    pub fn new(name: impl Into<String>) -> SweepAxis {
        SweepAxis {
            name: name.into(),
            variants: Vec::new(),
        }
    }

    /// Append a variant: `label` plus the mutation it applies.
    pub fn variant(
        mut self,
        label: impl Into<String>,
        apply: impl Fn(&mut SweepPoint) + Send + Sync + 'static,
    ) -> Self {
        self.variants.push(SweepVariant {
            label: label.into(),
            apply: Arc::new(apply),
        });
        self
    }

    /// The congestion-control axis: one variant per [`CcKind`], labelled
    /// with the controller's name (`cc=dcqcn`, `cc=timely`, `cc=off`).
    pub fn cc() -> SweepAxis {
        let mut axis = SweepAxis::new("cc");
        for kind in [CcKind::Dcqcn, CcKind::Timely, CcKind::Off] {
            axis = axis.variant(kind.name(), move |p| {
                p.transport = p.transport.cc(kind);
            });
        }
        axis
    }
}

/// One enumerated job: an index into the sweep's canonical order, the
/// human-readable axis labels, and the fully-applied configuration
/// point.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Position in enumeration order — the fleet sorts results by this,
    /// making output independent of worker count and scheduling.
    pub index: usize,
    /// `"axis=value"` per axis, plus `"seed=N"`.
    pub labels: Vec<String>,
    /// The configuration to run.
    pub point: SweepPoint,
}

/// A declarative sweep: a base point, axes, and a replicate count.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    base: Option<SweepPoint>,
    axes: Vec<SweepAxis>,
    replicates: u64,
}

impl SweepSpec {
    /// An empty sweep over the paper-default base point, one replicate.
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    /// Replace the base configuration point (default: paper defaults,
    /// seed 1).
    pub fn base(mut self, p: SweepPoint) -> Self {
        self.base = Some(p);
        self
    }

    /// Append an axis. Axes vary in declaration order, first axis
    /// outermost.
    pub fn axis(mut self, a: SweepAxis) -> Self {
        assert!(!a.variants.is_empty(), "axis {:?} has no variants", a.name);
        self.axes.push(a);
        self
    }

    /// Seed replicates per grid cell (min 1). Replicate `r` runs at
    /// `base.seed + r`; replicates vary innermost.
    pub fn replicates(mut self, n: u64) -> Self {
        self.replicates = n;
        self
    }

    /// Total number of jobs: the cartesian product times replicates.
    pub fn len(&self) -> usize {
        self.axes
            .iter()
            .map(|a| a.variants.len())
            .product::<usize>()
            * self.replicates.max(1) as usize
    }

    /// True when the sweep enumerates nothing (impossible in practice —
    /// an axis must have variants — but keeps clippy's `len` contract).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every job in canonical order: the exact cartesian
    /// product of the axes (no duplicates, stable order — axes in
    /// declaration order, first axis outermost) with seed replicates
    /// innermost.
    pub fn jobs(&self) -> Vec<SweepJob> {
        let base = self.base.clone().unwrap_or_else(SweepPoint::paper_default);
        let reps = self.replicates.max(1);
        let total = self.len();
        let mut jobs = Vec::with_capacity(total);
        // Odometer over axis indices; replicates are the innermost digit.
        let mut digits = vec![0usize; self.axes.len()];
        'outer: loop {
            for rep in 0..reps {
                let mut point = base.clone();
                let mut labels = Vec::with_capacity(self.axes.len() + 1);
                for (a, &d) in self.axes.iter().zip(&digits) {
                    let v = &a.variants[d];
                    (v.apply)(&mut point);
                    labels.push(format!("{}={}", a.name, v.label));
                }
                point.seed = base.seed + rep;
                labels.push(format!("seed={}", point.seed));
                jobs.push(SweepJob {
                    index: jobs.len(),
                    labels,
                    point,
                });
            }
            // Increment the odometer, last axis fastest.
            for i in (0..digits.len()).rev() {
                digits[i] += 1;
                if digits[i] < self.axes[i].variants.len() {
                    continue 'outer;
                }
                digits[i] = 0;
            }
            break;
        }
        debug_assert_eq!(jobs.len(), total);
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PfcMode;
    use rocescale_transport::LossRecovery;

    fn two_by_three() -> SweepSpec {
        SweepSpec::new()
            .axis(
                SweepAxis::new("pfc")
                    .variant("on", |p| p.fabric = p.fabric.clone().pfc(true))
                    .variant("off", |p| p.fabric = p.fabric.clone().pfc(false)),
            )
            .axis(
                SweepAxis::new("alpha")
                    .variant("1/16", |p| {
                        p.fabric = p.fabric.clone().alpha(Some(1.0 / 16.0))
                    })
                    .variant("1/64", |p| {
                        p.fabric = p.fabric.clone().alpha(Some(1.0 / 64.0))
                    })
                    .variant("static", |p| p.fabric = p.fabric.clone().alpha(None)),
            )
    }

    #[test]
    fn enumerates_exact_cartesian_product() {
        // Property check, exhaustively enumerated (the in-tree idiom for
        // property tests): every (axis₀, axis₁, rep) combination appears
        // exactly once, in odometer order.
        let spec = two_by_three().replicates(2);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 3 * 2);
        assert_eq!(spec.len(), jobs.len());

        // No duplicate label vectors, indices dense and in order.
        let mut seen = std::collections::HashSet::new();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i, "indices must be dense and ordered");
            assert!(seen.insert(j.labels.join(",")), "dup: {:?}", j.labels);
        }

        // Expected odometer order: first axis outermost, replicate
        // innermost.
        let expect: Vec<Vec<String>> = {
            let mut e = Vec::new();
            for pfc in ["on", "off"] {
                for alpha in ["1/16", "1/64", "static"] {
                    for seed in [1, 2] {
                        e.push(vec![
                            format!("pfc={pfc}"),
                            format!("alpha={alpha}"),
                            format!("seed={seed}"),
                        ]);
                    }
                }
            }
            e
        };
        let got: Vec<Vec<String>> = jobs.iter().map(|j| j.labels.clone()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn variants_apply_their_mutations() {
        let jobs = two_by_three().jobs();
        assert_eq!(jobs.len(), 6);
        assert!(jobs[0].point.fabric.pfc_enabled);
        assert!(!jobs[3].point.fabric.pfc_enabled);
        assert_eq!(jobs[2].point.fabric.alpha, None);
        assert!((jobs[1].point.fabric.alpha.unwrap() - 1.0 / 64.0).abs() < 1e-12);
        // Untouched dimensions stay at the base.
        for j in &jobs {
            assert_eq!(j.point.fabric.pfc_mode, PfcMode::Dscp);
            assert_eq!(j.point.transport.recovery, LossRecovery::GoBackN);
        }
    }

    #[test]
    fn replicates_differ_only_in_seed() {
        let spec = two_by_three().replicates(3);
        let jobs = spec.jobs();
        for cell in jobs.chunks(3) {
            let first = &cell[0];
            for (r, j) in cell.iter().enumerate() {
                assert_eq!(j.point.seed, 1 + r as u64);
                // Same cell ⇒ identical except the seed (and its label).
                let mut normalized = j.point.clone();
                normalized.seed = first.point.seed;
                assert_eq!(normalized, first.point);
                assert_eq!(
                    j.labels[..j.labels.len() - 1],
                    first.labels[..first.labels.len() - 1]
                );
            }
        }
    }

    #[test]
    fn stable_order_across_enumerations() {
        let spec = two_by_three().replicates(2);
        let a: Vec<String> = spec.jobs().iter().map(|j| j.labels.join(",")).collect();
        let b: Vec<String> = spec.jobs().iter().map(|j| j.labels.join(",")).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_spec_is_one_job() {
        let jobs = SweepSpec::new().jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].labels, vec!["seed=1"]);
        assert_eq!(jobs[0].point, SweepPoint::paper_default());
    }

    #[test]
    fn base_seed_offsets_replicates() {
        let mut base = SweepPoint::paper_default();
        base.seed = 40;
        let jobs = SweepSpec::new().base(base).replicates(3).jobs();
        let seeds: Vec<u64> = jobs.iter().map(|j| j.point.seed).collect();
        assert_eq!(seeds, vec![40, 41, 42]);
    }

    #[test]
    fn cc_axis_covers_every_controller() {
        let jobs = SweepSpec::new().axis(SweepAxis::cc()).jobs();
        assert_eq!(jobs.len(), 3);
        let labels: Vec<&str> = jobs.iter().map(|j| j.labels[0].as_str()).collect();
        assert_eq!(labels, vec!["cc=dcqcn", "cc=timely", "cc=off"]);
        assert_eq!(jobs[0].point.transport.cc, CcKind::Dcqcn);
        assert_eq!(jobs[1].point.transport.cc, CcKind::Timely);
        assert_eq!(jobs[2].point.transport.cc, CcKind::Off);
    }

    #[test]
    fn spec_and_jobs_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SweepSpec>();
        assert_send::<SweepJob>();
        assert_send::<SweepPoint>();
    }
}
