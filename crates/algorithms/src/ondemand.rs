//! The on-demand algorithm adapter: running a fetched IRVM module as a [`RoutingAlgorithm`].
//!
//! This is what an on-demand RAC instantiates after fetching an executable from the origin AS
//! and verifying its hash against the PCB's Algorithm extension (§V-C of the paper). The
//! adapter is also useful for *static* RACs whose operators prefer to configure algorithms as
//! IRVM modules rather than native code.

use crate::frame::Frame;
use crate::{AlgorithmContext, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_irvm::{CandidateView, ExecutionLimits, Interpreter, Program};
use irec_types::Result;

/// A routing algorithm backed by a sandboxed IRVM program.
pub struct IrvmAlgorithm {
    name: String,
    interpreter: Interpreter,
}

impl IrvmAlgorithm {
    /// Wraps a validated program with the given execution limits.
    pub fn new(program: Program, limits: ExecutionLimits) -> Result<Self> {
        let name = program.meta.name.clone();
        Ok(IrvmAlgorithm {
            name,
            interpreter: Interpreter::new(program, limits)?,
        })
    }

    /// Instantiates the algorithm from fetched module bytes (validating them), as an
    /// on-demand RAC does. The caller is responsible for hash verification against the PCB's
    /// Algorithm extension *before* calling this.
    pub fn from_module_bytes(bytes: &[u8], limits: ExecutionLimits) -> Result<Self> {
        let interpreter = Interpreter::from_module_bytes(bytes, limits)?;
        Ok(IrvmAlgorithm {
            name: interpreter.program().meta.name.clone(),
            interpreter,
        })
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        self.interpreter.program()
    }

    /// The selection for one interface as it was computed before the frame existed: a
    /// fresh set of views, the interpreter's own evaluate-and-rank over a copy of them.
    /// Kept as the oracle of [`crate::oracle`].
    #[cfg(test)]
    pub(crate) fn select_for_egress(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        egress: irec_types::IfId,
    ) -> Vec<usize> {
        let budget = (self.interpreter.program().meta.max_selected as usize).min(ctx.max_selected);
        let views: Vec<(usize, CandidateView)> = batch
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ingress != egress && !c.pcb.contains_as(ctx.local_as.id))
            .map(|(i, c)| {
                (
                    i,
                    CandidateView::new(
                        i as u64,
                        ctx.metrics_at_egress(c, egress),
                        c.pcb.link_keys(),
                    ),
                )
            })
            .collect();
        let inner: Vec<CandidateView> = views.iter().map(|(_, v)| v.clone()).collect();
        let picked = self.interpreter.select_best(&inner);
        picked
            .into_iter()
            .take(budget)
            .map(|pos| views[pos].0)
            .collect()
    }
}

impl RoutingAlgorithm for IrvmAlgorithm {
    fn name(&self) -> &str {
        &self.name
    }

    /// Ranked selection with the interpreter's verdict as the cost: the score of an
    /// accepted candidate, nothing for one the program rejects or fails on. A candidate's
    /// view is built once, when it is first judged, and only its metrics are rewritten
    /// when extended paths make them differ per interface.
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = (self.interpreter.program().meta.max_selected as usize).min(ctx.max_selected);
        let mut views: Vec<Option<CandidateView>> = vec![None; batch.len()];
        Ok(
            Frame::new(batch, ctx).select_ranked(budget, |candidate, metrics| {
                let index = candidate.index;
                let view = views[index].get_or_insert_with(|| {
                    let links = batch.candidates[index].pcb.link_keys();
                    CandidateView::new(index as u64, *metrics, links)
                });
                view.metrics = *metrics;
                self.interpreter.score(view)
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{candidate, local_as};
    use irec_irvm::programs;
    use irec_types::{AsId, IfId, InterfaceGroupId, Latency};

    fn batch() -> CandidateBatch {
        CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate(1, &[(10, 10), (10, 10)], 1), // 20 ms, 10 Mbps
                candidate(1, &[(10, 100), (10, 100), (10, 100)], 1), // 30 ms, 100 Mbps
                candidate(1, &[(10, 1000), (10, 1000), (20, 1000)], 2), // 40 ms, 1 Gbps
            ],
        )
    }

    #[test]
    fn irvm_widest_matches_expectation() {
        let node = local_as();
        let ctx = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        let alg =
            IrvmAlgorithm::new(programs::widest_path(1), ExecutionLimits::ON_DEMAND_RAC).unwrap();
        let r = alg.select(&batch(), &ctx).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![2]);
        assert_eq!(alg.name(), "widest-path");
    }

    #[test]
    fn irvm_bounded_widest_reproduces_example_2() {
        let node = local_as();
        let ctx = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        let alg = IrvmAlgorithm::new(
            programs::bounded_latency_widest(Latency::from_millis(30), 1),
            ExecutionLimits::ON_DEMAND_RAC,
        )
        .unwrap();
        let r = alg.select(&batch(), &ctx).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![1]);
    }

    #[test]
    fn from_module_bytes_roundtrip() {
        let program = programs::lowest_latency(2);
        let bytes = program.to_module_bytes();
        let alg = IrvmAlgorithm::from_module_bytes(&bytes, ExecutionLimits::ON_DEMAND_RAC).unwrap();
        assert_eq!(alg.program(), &program);
        let node = local_as();
        let ctx = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        let r = alg.select(&batch(), &ctx).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 1]);
    }

    #[test]
    fn corrupted_module_bytes_rejected() {
        let mut bytes = programs::lowest_latency(2).to_module_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(IrvmAlgorithm::from_module_bytes(&bytes, ExecutionLimits::ON_DEMAND_RAC).is_err());
    }

    #[test]
    fn budget_clamped_by_context() {
        let node = local_as();
        let mut ctx = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        ctx.max_selected = 1;
        let alg = IrvmAlgorithm::new(programs::lowest_latency(20), ExecutionLimits::ON_DEMAND_RAC)
            .unwrap();
        let r = alg.select(&batch(), &ctx).unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 1);
    }

    #[test]
    fn ingress_egress_filtering_applies() {
        let node = local_as();
        let ctx = AlgorithmContext::new(&node, vec![IfId(1)], 20);
        let alg = IrvmAlgorithm::new(programs::lowest_latency(20), ExecutionLimits::ON_DEMAND_RAC)
            .unwrap();
        let r = alg.select(&batch(), &ctx).unwrap();
        // Candidates 0 and 1 arrived on if1 and must not be re-propagated there.
        assert_eq!(r.per_egress[&IfId(1)], vec![2]);
    }
}
