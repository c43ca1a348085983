//! The per-batch selection frame: what a selector needs to know about a batch before it
//! looks at one egress interface, computed once per `select` call, and the one loop over
//! the egress interfaces every selector in this crate runs through.
//!
//! **Eligibility.** A candidate may be selected for an egress interface unless its path
//! already contains the local AS (loop prevention) or it arrived on that very interface (a
//! beacon never goes back out where it came in). The first half does not depend on the
//! interface, so the frame keeps only the [usable](Usable) candidates; the second half is
//! [`Usable::may_leave_on`]. Nothing else in the crate spells the rule out.
//!
//! **Eligibility classes.** The interface enters the rule only through "is it this
//! candidate's ingress", so all interfaces no usable candidate arrived on have the same
//! eligible set — every usable candidate — and form one class, the *open* class; every
//! other interface is a class of its own. [`Frame::per_egress`] runs a selector once per
//! class and copies the open class's selection to its interfaces — but only for a selector
//! that sees the interface through the filter alone, which is what [`EgressUse`] declares
//! and [`Frame::shares_open_class`] decides, once, for everybody.
//!
//! **Ranked selection.** A selector that judges each candidate on its own — a cost, or a
//! rejection — is [`Frame::select_ranked`]: rank by `(cost, candidate index)`, keep the
//! first `budget` eligible ones per interface.

use crate::{AlgorithmContext, CandidateBatch, SelectionResult};
use irec_types::{IfId, PathMetrics};
use std::collections::btree_map::Entry;

/// A candidate whose path does not already contain the local AS, with the facts every
/// selector reads off it.
pub(crate) struct Usable {
    /// Its index in the batch.
    pub index: usize,
    /// The local interface it arrived on.
    pub ingress: IfId,
    /// The metrics of the received path.
    pub received: PathMetrics,
}

impl Usable {
    /// The interface-dependent half of the eligibility rule.
    pub fn may_leave_on(&self, egress: IfId) -> bool {
        self.ingress != egress
    }
}

/// How a selection for an egress interface depends on that interface, beyond the
/// eligibility filter.
pub(crate) enum EgressUse {
    /// Not at all (HD, `<k>YEN`).
    FilterOnly,
    /// Through [`Frame::metrics_at`], which involves the interface exactly when the
    /// context asks for extended paths (every selector that scores metrics).
    Metrics,
    /// Through the interface's identity (ACO seeds its random streams with it).
    Identity,
}

/// See the [module documentation](self).
pub(crate) struct Frame<'a> {
    ctx: &'a AlgorithmContext<'a>,
    /// Ascending by batch index, so a position in this list orders like the index.
    usable: Vec<Usable>,
}

impl<'a> Frame<'a> {
    /// Reads the batch once.
    pub fn new(batch: &CandidateBatch, ctx: &'a AlgorithmContext<'a>) -> Self {
        let usable = batch
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.pcb.contains_as(ctx.local_as.id))
            .map(|(index, c)| Usable {
                index,
                ingress: c.ingress,
                received: c.received_metrics(),
            })
            .collect();
        Frame { ctx, usable }
    }

    /// The usable candidates, ascending by batch index.
    pub fn usable(&self) -> &[Usable] {
        &self.usable
    }

    /// The candidates eligible for `egress` with their positions in [`Frame::usable`],
    /// ascending.
    pub fn eligible_at(&self, egress: IfId) -> impl Iterator<Item = (usize, &Usable)> + '_ {
        self.usable
            .iter()
            .enumerate()
            .filter(move |(_, u)| u.may_leave_on(egress))
    }

    /// The metrics of a candidate as seen at `egress` (see
    /// [`AlgorithmContext::metrics_at_egress`]), from the received metrics computed once.
    pub fn metrics_at(&self, candidate: &Usable, egress: IfId) -> PathMetrics {
        self.ctx
            .extend_to_egress(candidate.received, candidate.ingress, egress)
    }

    /// Whether `egress` belongs to the open class: no usable candidate arrived on it.
    pub fn is_open(&self, egress: IfId) -> bool {
        self.usable.iter().all(|u| u.may_leave_on(egress))
    }

    /// Whether the selection made for one interface of the open class holds for all of
    /// them: only when the interface enters it through the filter alone.
    fn shares_open_class(&self, egress_use: EgressUse) -> bool {
        match egress_use {
            EgressUse::FilterOnly => true,
            EgressUse::Metrics => !self.ctx.extend_paths,
            EgressUse::Identity => false,
        }
    }

    /// Runs `select` for the context's egress interfaces — once per interface, or once
    /// per eligibility class where `egress_use` allows sharing — and collects the result.
    /// An interface listed twice is selected for once: same inputs, same selection.
    pub fn per_egress(
        &self,
        egress_use: EgressUse,
        mut select: impl FnMut(IfId) -> Vec<usize>,
    ) -> SelectionResult {
        let share = self.shares_open_class(egress_use);
        let mut open_class: Option<Vec<usize>> = None;
        let mut result = SelectionResult::empty();
        for &egress in &self.ctx.egress_interfaces {
            let Entry::Vacant(slot) = result.per_egress.entry(egress) else {
                continue;
            };
            let open = share && self.is_open(egress);
            let selected = if open {
                open_class.get_or_insert_with(|| select(egress)).clone()
            } else {
                select(egress)
            };
            slot.insert(selected);
        }
        result
    }

    /// Selects, per egress interface, the `budget` eligible candidates of lowest
    /// `(cost, batch index)`, best first; a candidate `cost` returns `None` for is never
    /// selected. `cost` sees the candidate and its metrics at the interface in question:
    /// without extended paths those are the received metrics, every candidate is judged
    /// once per batch and an interface takes a filtered prefix of the one ranking; with
    /// them only the received half is shared and each interface ranks its own.
    pub fn select_ranked<C: Ord>(
        &self,
        budget: usize,
        mut cost: impl FnMut(&Usable, &PathMetrics) -> Option<C>,
    ) -> SelectionResult {
        // The position stands in for the batch index and makes every key unique.
        let mut rank = |members: &mut dyn Iterator<Item = (usize, PathMetrics)>| {
            let mut ranked: Vec<(C, usize)> = members
                .filter_map(|(p, metrics)| cost(&self.usable[p], &metrics).map(|c| (c, p)))
                .collect();
            ranked.sort_unstable();
            ranked
        };
        let best_of = |ranked: &[(C, usize)], egress: IfId| -> Vec<usize> {
            ranked
                .iter()
                .map(|(_, p)| &self.usable[*p])
                .filter(|u| u.may_leave_on(egress))
                .take(budget)
                .map(|u| u.index)
                .collect()
        };
        if self.shares_open_class(EgressUse::Metrics) {
            let ranked = rank(&mut self.usable.iter().map(|u| u.received).enumerate());
            self.per_egress(EgressUse::Metrics, |egress| best_of(&ranked, egress))
        } else {
            self.per_egress(EgressUse::Metrics, |egress| {
                let members = self.eligible_at(egress);
                let ranked = rank(&mut members.map(|(p, u)| (p, self.metrics_at(u, egress))));
                best_of(&ranked, egress)
            })
        }
    }
}
