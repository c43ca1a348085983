//! The fuel-metered IRVM interpreter — the sandbox in which RACs run routing algorithms.

use crate::bytecode::{Instruction, Program, MAX_STACK_DEPTH};
use irec_types::{AsId, IfId, IrecError, MetricKind, PathMetrics, Result};

/// Resource limits for one program execution (one candidate × one egress interface).
///
/// The paper: "an algorithm's runtime and memory consumption are strictly limited". Fuel is
/// the instruction budget; the stack limit bounds memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionLimits {
    /// Maximum number of executed instructions per candidate evaluation.
    pub fuel: u64,
    /// Maximum operand-stack depth.
    pub max_stack: usize,
}

impl Default for ExecutionLimits {
    fn default() -> Self {
        ExecutionLimits {
            fuel: 10_000,
            max_stack: MAX_STACK_DEPTH,
        }
    }
}

impl ExecutionLimits {
    /// Generous limits for trusted, statically configured algorithms.
    pub const STATIC_RAC: ExecutionLimits = ExecutionLimits {
        fuel: 100_000,
        max_stack: MAX_STACK_DEPTH,
    };
    /// Strict limits for untrusted on-demand algorithms fetched from remote ASes.
    pub const ON_DEMAND_RAC: ExecutionLimits = ExecutionLimits {
        fuel: 10_000,
        max_stack: 64,
    };
}

/// The host-side view of one candidate PCB, as exposed to the algorithm.
///
/// The metrics are *extended-path* metrics when the RAC has extended-path optimization
/// enabled (§IV-E): the received path metrics plus the intra-AS crossing towards the egress
/// interface currently being evaluated. With the mechanism disabled they are the received
/// metrics unchanged. The algorithm itself cannot tell the difference — exactly like in the
/// paper, where the RAC prepares inputs and the algorithm stays generic.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateView {
    /// Index of the candidate within the batch handed to the algorithm.
    pub index: u64,
    /// Extended (or received) path metrics of the candidate.
    pub metrics: PathMetrics,
    /// Links traversed by the candidate, identified by `(AS, egress interface)`.
    pub links: Vec<(AsId, IfId)>,
}

impl CandidateView {
    /// Creates a candidate view.
    pub fn new(index: u64, metrics: PathMetrics, links: Vec<(AsId, IfId)>) -> Self {
        CandidateView {
            index,
            metrics,
            links,
        }
    }

    fn metric_value(&self, kind: MetricKind) -> i64 {
        let raw = self.metrics.value(kind).raw();
        i64::try_from(raw).unwrap_or(i64::MAX)
    }

    fn intersects(&self, avoid: &[(AsId, IfId)]) -> bool {
        self.links.iter().any(|l| avoid.contains(l))
    }
}

/// The outcome of evaluating a program on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate is not selectable by this algorithm.
    Rejected,
    /// The candidate is selectable with this score; lower is better.
    Accepted(i64),
}

impl Verdict {
    /// The score if accepted.
    pub fn score(&self) -> Option<i64> {
        match self {
            Verdict::Accepted(s) => Some(*s),
            Verdict::Rejected => None,
        }
    }

    /// Whether the candidate was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted(_))
    }
}

/// Counters reported after an execution; used by the Fig. 6/7 benches and by RAC accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Instructions actually executed.
    pub instructions: u64,
    /// High-water mark of the operand stack.
    pub max_stack_depth: usize,
}

/// The IRVM interpreter, holding a validated program.
///
/// Creating an `Interpreter` corresponds to the paper's "WASM setup" step (module validation
/// and instantiation); [`Interpreter::evaluate`] corresponds to "WASM module execution".
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: Program,
    limits: ExecutionLimits,
}

impl Interpreter {
    /// Instantiates an interpreter for `program` (validating it) under `limits`.
    pub fn new(program: Program, limits: ExecutionLimits) -> Result<Self> {
        program.validate()?;
        Ok(Interpreter { program, limits })
    }

    /// Instantiates an interpreter from the canonical module bytes, as an on-demand RAC does
    /// after fetching and hash-verifying the executable.
    pub fn from_module_bytes(bytes: &[u8], limits: ExecutionLimits) -> Result<Self> {
        let program = Program::from_module_bytes(bytes)?;
        Ok(Interpreter { program, limits })
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-candidate resource limits.
    pub fn limits(&self) -> ExecutionLimits {
        self.limits
    }

    /// Evaluates the program on one candidate, returning the verdict and execution counters.
    pub fn evaluate(&self, candidate: &CandidateView) -> Result<(Verdict, ExecutionStats)> {
        let code = &self.program.code;
        let mut stack: Vec<i64> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        let mut fuel = self.limits.fuel;
        let mut stats = ExecutionStats::default();

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| IrecError::algorithm("stack underflow"))?
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                if stack.len() >= self.limits.max_stack {
                    return Err(IrecError::resource_limit("operand stack overflow"));
                }
                stack.push($v);
                stats.max_stack_depth = stats.max_stack_depth.max(stack.len());
            }};
        }
        macro_rules! binop {
            ($f:expr) => {{
                let b = pop!();
                let a = pop!();
                let r: i64 = $f(a, b)?;
                push!(r);
            }};
        }

        loop {
            if fuel == 0 {
                return Err(IrecError::resource_limit(format!(
                    "fuel exhausted after {} instructions",
                    stats.instructions
                )));
            }
            fuel -= 1;
            stats.instructions += 1;

            let Some(instr) = code.get(pc) else {
                // Running off the end of the code without Accept/Reject is an error: the
                // algorithm produced no decision.
                return Err(IrecError::algorithm("program ended without a verdict"));
            };
            pc += 1;

            match *instr {
                Instruction::Push(v) => push!(v),
                Instruction::PushMetric(kind) => push!(candidate.metric_value(kind)),
                Instruction::PushAvoidHit => {
                    push!(i64::from(candidate.intersects(&self.program.avoid_links)))
                }
                Instruction::PushIndex => {
                    push!(i64::try_from(candidate.index).unwrap_or(i64::MAX))
                }
                Instruction::Dup => {
                    let top = *stack
                        .last()
                        .ok_or_else(|| IrecError::algorithm("stack underflow"))?;
                    push!(top);
                }
                Instruction::Swap => {
                    let b = pop!();
                    let a = pop!();
                    push!(b);
                    push!(a);
                }
                Instruction::Drop => {
                    let _ = pop!();
                }
                Instruction::Add => binop!(|a: i64, b: i64| a
                    .checked_add(b)
                    .ok_or_else(|| IrecError::algorithm("integer overflow in add"))),
                Instruction::Sub => binop!(|a: i64, b: i64| a
                    .checked_sub(b)
                    .ok_or_else(|| IrecError::algorithm("integer overflow in sub"))),
                Instruction::Mul => binop!(|a: i64, b: i64| a
                    .checked_mul(b)
                    .ok_or_else(|| IrecError::algorithm("integer overflow in mul"))),
                Instruction::Div => binop!(|a: i64, b: i64| a
                    .checked_div(b)
                    .ok_or_else(|| IrecError::algorithm("division by zero or overflow"))),
                Instruction::Neg => {
                    let a = pop!();
                    push!(a
                        .checked_neg()
                        .ok_or_else(|| IrecError::algorithm("integer overflow in neg"))?);
                }
                Instruction::Min => binop!(|a: i64, b: i64| Ok::<i64, IrecError>(a.min(b))),
                Instruction::Max => binop!(|a: i64, b: i64| Ok::<i64, IrecError>(a.max(b))),
                Instruction::Lt => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a < b))),
                Instruction::Le => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a <= b))),
                Instruction::Gt => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a > b))),
                Instruction::Ge => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a >= b))),
                Instruction::Eq => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a == b))),
                Instruction::Ne => binop!(|a, b| Ok::<i64, IrecError>(i64::from(a != b))),
                Instruction::And => {
                    binop!(|a, b| Ok::<i64, IrecError>(i64::from(a != 0 && b != 0)))
                }
                Instruction::Or => {
                    binop!(|a, b| Ok::<i64, IrecError>(i64::from(a != 0 || b != 0)))
                }
                Instruction::Not => {
                    let a = pop!();
                    push!(i64::from(a == 0));
                }
                Instruction::Jump(target) => {
                    pc = target as usize;
                }
                Instruction::JumpIfZero(target) => {
                    let cond = pop!();
                    if cond == 0 {
                        pc = target as usize;
                    }
                }
                Instruction::Reject => return Ok((Verdict::Rejected, stats)),
                Instruction::Accept => {
                    let score = pop!();
                    return Ok((Verdict::Accepted(score), stats));
                }
            }
        }
    }

    /// The verdict on one candidate as a rank key: the score of an accepted candidate
    /// (lower is better), `None` for one the program rejects — or fails on (overflow,
    /// fuel, …): a malicious algorithm can only hurt its own beacons, never the RAC (the
    /// sandbox property the paper relies on). This is what a caller that ranks candidates
    /// itself needs; it takes them one at a time, wherever they live.
    pub fn score(&self, candidate: &CandidateView) -> Option<i64> {
        self.evaluate(candidate)
            .ok()
            .and_then(|(verdict, _)| verdict.score())
    }

    /// Evaluates the program over a whole candidate batch, returning one verdict per
    /// candidate (in input order). Candidates whose evaluation fails are treated as
    /// rejected, as in [`Interpreter::score`].
    pub fn evaluate_batch(&self, candidates: &[CandidateView]) -> Vec<Verdict> {
        candidates
            .iter()
            .map(|c| match self.evaluate(c) {
                Ok((verdict, _)) => verdict,
                Err(_) => Verdict::Rejected,
            })
            .collect()
    }

    /// Evaluates a batch and returns the indices of the best `max_selected` accepted
    /// candidates, ordered by ascending score (ties broken by candidate order).
    pub fn select_best(&self, candidates: &[CandidateView]) -> Vec<usize> {
        let mut accepted: Vec<(i64, usize)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, c)| self.score(c).map(|s| (s, i)))
            .collect();
        accepted.sort();
        accepted
            .into_iter()
            .take(self.program.meta.max_selected as usize)
            .map(|(_, i)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Program;
    use irec_types::{Bandwidth, Latency};
    use proptest::prelude::*;

    fn candidate(index: u64, latency_ms: u64, bw_mbps: u64, hops: u32) -> CandidateView {
        CandidateView::new(
            index,
            PathMetrics {
                latency: Latency::from_millis(latency_ms),
                bandwidth: Bandwidth::from_mbps(bw_mbps),
                hops,
            },
            vec![(AsId(index), IfId(1))],
        )
    }

    fn run(program: Program, candidate: &CandidateView) -> Verdict {
        Interpreter::new(program, ExecutionLimits::default())
            .unwrap()
            .evaluate(candidate)
            .unwrap()
            .0
    }

    #[test]
    fn score_by_latency() {
        let p = Program::new(
            "latency",
            20,
            vec![
                Instruction::PushMetric(MetricKind::Latency),
                Instruction::Accept,
            ],
        );
        let v = run(p, &candidate(0, 25, 100, 3));
        assert_eq!(v, Verdict::Accepted(25_000)); // µs
    }

    #[test]
    fn arithmetic_and_comparison() {
        // score = hops * 1000 - 1, accept only if bandwidth >= 50 Mbps.
        let p = Program::new(
            "combo",
            20,
            vec![
                Instruction::PushMetric(MetricKind::Bandwidth),
                Instruction::Push(50_000),
                Instruction::Ge,
                Instruction::JumpIfZero(9),
                Instruction::PushMetric(MetricKind::HopCount),
                Instruction::Push(1000),
                Instruction::Mul,
                Instruction::Push(1),
                Instruction::Sub,
                // index 9:
                Instruction::Accept, // if jumped here with empty stack -> underflow -> handled below
            ],
        );
        // Wide path: accepted with score 4*1000-1.
        let v = run(p.clone(), &candidate(0, 10, 100, 4));
        assert_eq!(v, Verdict::Accepted(3999));
        // Narrow path: jumps to Accept with an empty stack => algorithm error.
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        assert!(interp.evaluate(&candidate(0, 10, 10, 4)).is_err());
    }

    #[test]
    fn reject_verdict() {
        let p = Program::new("reject-all", 20, vec![Instruction::Reject]);
        let v = run(p, &candidate(0, 10, 10, 1));
        assert_eq!(v, Verdict::Rejected);
        assert!(!v.is_accepted());
        assert_eq!(v.score(), None);
    }

    #[test]
    fn avoid_list_membership() {
        let mut p = Program::new(
            "avoid",
            20,
            vec![
                Instruction::PushAvoidHit,
                Instruction::JumpIfZero(3),
                Instruction::Reject,
                Instruction::PushMetric(MetricKind::Latency),
                Instruction::Accept,
            ],
        );
        p.avoid_links.push((AsId(5), IfId(1)));
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        // Candidate 5 traverses (AS5, if1) which is on the avoid list.
        let (v_avoided, _) = interp.evaluate(&candidate(5, 10, 10, 1)).unwrap();
        assert_eq!(v_avoided, Verdict::Rejected);
        let (v_clear, _) = interp.evaluate(&candidate(6, 10, 10, 1)).unwrap();
        assert!(v_clear.is_accepted());
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let p = Program::new("spin", 20, vec![Instruction::Jump(0)]);
        let interp = Interpreter::new(
            p,
            ExecutionLimits {
                fuel: 1000,
                max_stack: 16,
            },
        )
        .unwrap();
        let err = interp.evaluate(&candidate(0, 1, 1, 1)).unwrap_err();
        assert_eq!(err.category(), "resource-limit");
    }

    #[test]
    fn stack_overflow_is_contained() {
        // Push in a loop forever.
        let p = Program::new(
            "pusher",
            20,
            vec![Instruction::Push(1), Instruction::Jump(0)],
        );
        let interp = Interpreter::new(
            p,
            ExecutionLimits {
                fuel: 100_000,
                max_stack: 32,
            },
        )
        .unwrap();
        let err = interp.evaluate(&candidate(0, 1, 1, 1)).unwrap_err();
        assert_eq!(err.category(), "resource-limit");
    }

    #[test]
    fn stack_underflow_is_an_algorithm_error() {
        let p = Program::new("underflow", 20, vec![Instruction::Add, Instruction::Accept]);
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        let err = interp.evaluate(&candidate(0, 1, 1, 1)).unwrap_err();
        assert_eq!(err.category(), "algorithm");
    }

    #[test]
    fn division_by_zero_is_an_algorithm_error() {
        let p = Program::new(
            "div0",
            20,
            vec![
                Instruction::Push(1),
                Instruction::Push(0),
                Instruction::Div,
                Instruction::Accept,
            ],
        );
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        assert!(interp.evaluate(&candidate(0, 1, 1, 1)).is_err());
    }

    #[test]
    fn running_off_the_end_is_an_error() {
        let p = Program::new("no-verdict", 20, vec![Instruction::Push(1)]);
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        assert!(interp.evaluate(&candidate(0, 1, 1, 1)).is_err());
    }

    #[test]
    fn batch_evaluation_turns_errors_into_rejections() {
        let p = Program::new(
            "fragile",
            20,
            vec![
                // Divide 100 by (hops - 2): errors for hops == 2.
                Instruction::Push(100),
                Instruction::PushMetric(MetricKind::HopCount),
                Instruction::Push(2),
                Instruction::Sub,
                Instruction::Div,
                Instruction::Accept,
            ],
        );
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        let candidates = vec![
            candidate(0, 1, 1, 3),
            candidate(1, 1, 1, 2),
            candidate(2, 1, 1, 4),
        ];
        let verdicts = interp.evaluate_batch(&candidates);
        assert!(verdicts[0].is_accepted());
        assert_eq!(verdicts[1], Verdict::Rejected);
        assert!(verdicts[2].is_accepted());
    }

    #[test]
    fn select_best_orders_by_score_and_respects_budget() {
        let p = Program::new(
            "latency",
            2,
            vec![
                Instruction::PushMetric(MetricKind::Latency),
                Instruction::Accept,
            ],
        );
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        let candidates = vec![
            candidate(0, 30, 10, 1),
            candidate(1, 10, 10, 1),
            candidate(2, 20, 10, 1),
            candidate(3, 40, 10, 1),
        ];
        let selected = interp.select_best(&candidates);
        assert_eq!(selected, vec![1, 2]);
    }

    #[test]
    fn logic_and_stack_ops() {
        // score = min(latency, 5000) if NOT (hops > 10) else reject, exercising
        // Dup/Swap/Drop/Min/Not/And/Or.
        let p = Program::new(
            "logic",
            20,
            vec![
                Instruction::PushMetric(MetricKind::HopCount),
                Instruction::Push(10),
                Instruction::Gt,
                Instruction::Not,
                Instruction::Push(1),
                Instruction::And,
                Instruction::Push(0),
                Instruction::Or,
                Instruction::JumpIfZero(15),
                Instruction::PushMetric(MetricKind::Latency),
                Instruction::Push(5000),
                Instruction::Min,
                Instruction::Dup,
                Instruction::Swap,
                Instruction::Drop,
                // 15:
                Instruction::Accept,
            ],
        );
        // This program has a quirk: when jumping to 15 the stack is empty; only valid paths
        // reach Accept with a value. hops=3 is fine:
        let v = run(p.clone(), &candidate(0, 100, 10, 3));
        assert_eq!(v, Verdict::Accepted(5000));
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        assert!(interp.evaluate(&candidate(0, 100, 10, 11)).is_err());
    }

    #[test]
    fn execution_stats_reported() {
        let p = Program::new(
            "latency",
            20,
            vec![
                Instruction::PushMetric(MetricKind::Latency),
                Instruction::Accept,
            ],
        );
        let interp = Interpreter::new(p, ExecutionLimits::default()).unwrap();
        let (_, stats) = interp.evaluate(&candidate(0, 10, 10, 1)).unwrap();
        assert_eq!(stats.instructions, 2);
        assert_eq!(stats.max_stack_depth, 1);
    }

    #[test]
    fn negative_scores_and_neg_instruction() {
        // score = -bandwidth => widest path first.
        let p = Program::new(
            "widest",
            20,
            vec![
                Instruction::PushMetric(MetricKind::Bandwidth),
                Instruction::Neg,
                Instruction::Accept,
            ],
        );
        let v = run(p, &candidate(0, 10, 100, 1));
        assert_eq!(v, Verdict::Accepted(-100_000));
    }

    proptest! {
        #[test]
        fn prop_interpreter_never_panics_on_random_programs(
            opcodes in proptest::collection::vec(0u8..30, 1..64),
            lat in 0u64..1_000_000, bw in 0u64..1_000_000, hops in 0u32..64)
        {
            // Build a syntactically valid random program (jump targets clamped in-range).
            let n = opcodes.len() as u32;
            let code: Vec<Instruction> = opcodes.iter().enumerate().map(|(i, &op)| match op {
                0 => Instruction::Push(i as i64),
                1 => Instruction::PushMetric(MetricKind::Latency),
                2 => Instruction::PushMetric(MetricKind::Bandwidth),
                3 => Instruction::PushAvoidHit,
                4 => Instruction::PushIndex,
                5 => Instruction::Dup,
                6 => Instruction::Swap,
                7 => Instruction::Drop,
                8 => Instruction::Add,
                9 => Instruction::Sub,
                10 => Instruction::Mul,
                11 => Instruction::Div,
                12 => Instruction::Neg,
                13 => Instruction::Min,
                14 => Instruction::Max,
                15 => Instruction::Lt,
                16 => Instruction::Le,
                17 => Instruction::Gt,
                18 => Instruction::Ge,
                19 => Instruction::Eq,
                20 => Instruction::Ne,
                21 => Instruction::And,
                22 => Instruction::Or,
                23 => Instruction::Not,
                24 => Instruction::Jump((i as u32 + 1) % n),
                25 => Instruction::JumpIfZero((i as u32 + 1) % n),
                26 => Instruction::Reject,
                27 => Instruction::Accept,
                _ => Instruction::Push(0),
            }).collect();
            let p = Program::new("fuzz", 5, code);
            if let Ok(interp) = Interpreter::new(p, ExecutionLimits { fuel: 2000, max_stack: 32 }) {
                // Must terminate (fuel) and never panic.
                let c = candidate(0, lat, bw, hops);
                let _ = interp.evaluate(&c);
            }
        }

        #[test]
        fn prop_fuel_bounds_instruction_count(fuel in 1u64..5000) {
            let p = Program::new("spin", 1, vec![Instruction::Jump(0)]);
            let interp = Interpreter::new(p, ExecutionLimits { fuel, max_stack: 8 }).unwrap();
            let c = candidate(0, 1, 1, 1);
            let err = interp.evaluate(&c).unwrap_err();
            prop_assert_eq!(err.category(), "resource-limit");
        }
    }
}
