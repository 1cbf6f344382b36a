//! Points axes and `policy` values in grid documents: knobs apply in
//! order, point by point and axis by axis; a point's seed offset counts
//! from the base seed while a point without one keeps `base + index`; a
//! policy is labelled by its tag, with the optimizer where it is not the
//! paper's.

use eacp_spec::{Axis, ExperimentSpec, Knob, OptimizerSpec, Point, PolicySpec, SweepSpec, ToJson};

#[test]
fn points_axes_apply_knobs_in_order_and_seed_by_offset() {
    let mut base = ExperimentSpec::paper_nominal();
    base.name = "grid".into();
    base.mc.seed = 2006;
    let exact = PolicySpec::DvsScp {
        lambda: 2e-3,
        k: 5,
        optimizer: OptimizerSpec::ExactRecursion,
    };
    let sweep = SweepSpec {
        base,
        axes: vec![
            Axis::points([
                Point::new([Knob::Utilization(0.8), Knob::Lambda(2e-3)]).with_seed_offset(7),
                Point::new([Knob::Lambda(2e-3), Knob::Policy(exact)]),
            ]),
            Axis::new(
                Knob::Policy,
                [
                    PolicySpec::from_tag("a_d_s", 2e-3, 5, 0).unwrap(),
                    PolicySpec::from_tag("poisson", 2e-3, 5, 1).unwrap(),
                ],
            ),
        ],
    };
    let specs = sweep.expand().unwrap();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "grid-u0.8-l0.002-a_d_s",
            "grid-u0.8-l0.002-poisson",
            "grid-l0.002-a_d_s-exact-recursion-a_d_s",
            "grid-l0.002-a_d_s-exact-recursion-poisson",
        ]
    );
    let seeds: Vec<u64> = specs.iter().map(|s| s.mc.seed).collect();
    assert_eq!(seeds, [2013, 2013, 2008, 2009]);
    // The later axis's policy replaced the point's whole policy.
    assert_eq!(specs[3].policy.speed(), Some(1));
    assert_eq!(specs[0].faults.nominal_lambda(), Some(2e-3));
    let back = SweepSpec::from_json_str(&sweep.to_json_string()).unwrap();
    assert_eq!(back, sweep);
}
