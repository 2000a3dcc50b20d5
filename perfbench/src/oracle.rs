//! Expected answers for wire requests, computed before any timed phase.
//!
//! Every output is checked against the reference interpreter
//! (`scl_transform::eval`) and every machine report against a solo run of
//! the same plan: `Skel::run` for plain submissions, `Scl::run_optimized`
//! for optimized ones.

use std::collections::HashMap;
use std::sync::OnceLock;

use scl_core::{ParArray, Scl, Skel};
use scl_machine::{CostModel, Machine, MachineReport, Topology};
use scl_net::Mode;
use scl_transform::{Registry, Value};

use crate::gen::{Req, WireInputs, PARTS};

/// The standard registry, leaked once: served plans borrow it for
/// `'static`.
pub fn registry() -> &'static Registry {
    static REG: OnceLock<&'static Registry> = OnceLock::new();
    REG.get_or_init(|| Box::leak(Box::new(Registry::standard())))
}

/// The machine template every wire request runs on.
pub fn wire_machine() -> Machine {
    Machine::new(Topology::FullyConnected { procs: PARTS }, CostModel::unit())
}

/// One request's expected output and machine report.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub output: Vec<i64>,
    pub report: MachineReport,
}

pub struct Oracle {
    answers: HashMap<Req, Expected>,
}

impl Oracle {
    /// Answer every distinct request in `reqs`. Fails when the solo run
    /// and the interpreter disagree, since then no reply can be right.
    pub fn build(
        inputs: &WireInputs,
        mode: Mode,
        reqs: impl IntoIterator<Item = Req>,
    ) -> Result<Oracle, String> {
        let reg = registry();
        let mut plans: HashMap<usize, (scl_transform::Expr, Skel<'static, _, _>)> = HashMap::new();
        let mut scl = Scl::new(wire_machine());
        let mut answers = HashMap::new();
        for req in reqs {
            if answers.contains_key(&req) {
                continue;
            }
            let source = &inputs.plans[req.plan].source;
            let (expr, plan) = match plans.entry(req.plan) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let expr = scl_transform::parse(source).map_err(|e| e.to_string())?;
                    let plan: Skel<'static, ParArray<i64>, ParArray<i64>> =
                        Skel::from_expr(&expr, reg)?;
                    v.insert((expr, plan))
                }
            };
            let payload = &inputs.payloads[req.payload];
            let want = scl_transform::eval(expr, reg, Value::Arr(payload.clone()))
                .and_then(Value::into_arr)
                .map_err(|e| format!("interpreter failed on `{source}`: {e}"))?;
            scl.reset();
            let input = ParArray::from_parts(payload.clone());
            let solo = match mode {
                Mode::Plain => plan.run(&mut scl, input),
                Mode::Optimized => scl.run_optimized(plan, reg, input).0,
            };
            if solo.parts() != want.as_slice() {
                return Err(format!(
                    "solo run of `{source}` disagrees with the interpreter"
                ));
            }
            answers.insert(
                req,
                Expected {
                    output: want,
                    report: scl.machine.report(),
                },
            );
        }
        Ok(Oracle { answers })
    }

    /// Check one reply.
    pub fn check(&self, req: Req, output: &[i64], report: &MachineReport) -> Result<(), String> {
        let want = self
            .answers
            .get(&req)
            .ok_or_else(|| format!("no expected answer for {req:?}"))?;
        if want.output != output {
            return Err(format!("wrong output for {req:?}"));
        }
        if &want.report != report {
            return Err(format!("wrong machine report for {req:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Mix};

    #[test]
    fn the_oracle_catches_a_corrupted_reply() {
        for (mix, mode) in [(Mix::Hot, Mode::Plain), (Mix::Churn, Mode::Optimized)] {
            let w = generate(mix, 5, 16);
            let reqs: Vec<Req> = w.open.iter().flatten().map(|(_, r)| *r).collect();
            let oracle = Oracle::build(&w, mode, reqs.iter().copied()).unwrap();
            let req = reqs[0];
            let good = oracle.answers[&req].clone();
            oracle.check(req, &good.output, &good.report).unwrap();

            let mut bad_out = good.output.clone();
            bad_out[3] ^= 1;
            assert!(oracle.check(req, &bad_out, &good.report).is_err());
            assert!(oracle.check(req, &good.output[1..], &good.report).is_err());

            let mut bad_report = good.report.clone();
            bad_report.metrics.messages += 1;
            assert!(oracle.check(req, &good.output, &bad_report).is_err());
        }
    }
}
