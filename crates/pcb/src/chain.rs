//! The hop chain of a beacon: its signed AS entries, origin first.
//!
//! A beacon that an AS sends on is the beacon it received plus one entry, and it sends it
//! to every neighbour it may export to. Stored flat, every receiver therefore holds a
//! byte-identical copy of the sender's whole chain. A [`HopChain`] splits the chain where
//! the copies end: an immutable **upstream** part, one allocation shared by everyone the
//! sender fanned the beacon out to, and the entries this holder **owns** — for a beacon
//! received from a neighbour, the one entry that neighbour appended.
//!
//! The split is storage only. Length, order, equality, the wire encoding and everything
//! signed or hashed read the chain as one sequence, upstream entries first; two chains with
//! the same entries are equal wherever each of them is split.

use crate::hop::AsEntry;
use std::sync::Arc;

/// The AS entries of a beacon in propagation order (origin first), see the module
/// documentation.
#[derive(Clone, Default)]
pub struct HopChain {
    /// The entries the holder shares with every other receiver of the same extension.
    upstream: Option<Arc<[AsEntry]>>,
    /// The entries behind them, held by this chain alone.
    owned: Vec<AsEntry>,
}

impl HopChain {
    /// An empty chain.
    pub const fn new() -> Self {
        HopChain {
            upstream: None,
            owned: Vec::new(),
        }
    }

    /// `upstream` followed by `entry`, the one entry this chain owns — allocated for
    /// exactly that entry: a stored chain never grows again.
    pub fn extending(upstream: Option<Arc<[AsEntry]>>, entry: AsEntry) -> Self {
        HopChain {
            upstream,
            owned: vec![entry],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        let (upstream, owned) = self.slices();
        upstream.len() + owned.len()
    }

    /// Whether the chain has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chain as its two halves, upstream entries first. Loops that run once per
    /// candidate walk the two slices back to back instead of going through
    /// [`HopChain::iter`].
    #[inline]
    pub fn slices(&self) -> (&[AsEntry], &[AsEntry]) {
        (self.upstream.as_deref().unwrap_or(&[]), &self.owned)
    }

    /// The origin's entry.
    pub fn first(&self) -> Option<&AsEntry> {
        let (upstream, owned) = self.slices();
        upstream.first().or_else(|| owned.first())
    }

    /// The entry of the AS that sent the beacon to its holder.
    #[inline]
    pub fn last(&self) -> Option<&AsEntry> {
        let (upstream, owned) = self.slices();
        owned.last().or_else(|| upstream.last())
    }

    /// The entries from the origin on.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        let (upstream, owned) = self.slices();
        // An unshared chain — every decoded beacon — is walked as one slice.
        let (head, tail) = if upstream.is_empty() {
            (owned, upstream)
        } else {
            (upstream, owned)
        };
        Iter {
            head: head.iter(),
            tail: tail.iter(),
        }
    }

    /// The shared half, if the chain has one.
    pub fn upstream(&self) -> Option<&Arc<[AsEntry]>> {
        self.upstream.as_ref()
    }

    /// The half this chain holds alone (as the vector, for what it reserves).
    pub fn owned(&self) -> &Vec<AsEntry> {
        &self.owned
    }

    /// Appends `entry` to the owned half.
    pub fn push(&mut self, entry: AsEntry) {
        self.owned.push(entry);
    }

    /// The whole chain as one vector to edit in place; a chain with a shared half copies it
    /// into the owned one first and shares nothing afterwards. For builders and tests —
    /// nothing on the path of a propagated beacon edits a chain.
    pub fn to_mut(&mut self) -> &mut Vec<AsEntry> {
        if let Some(upstream) = self.upstream.take() {
            let mut flat = Vec::with_capacity(upstream.len() + self.owned.len());
            flat.extend_from_slice(&upstream);
            flat.append(&mut self.owned);
            self.owned = flat;
        }
        &mut self.owned
    }

    /// The whole chain as one shared allocation, to be the upstream half of every chain
    /// that extends this one; `None` for an empty chain. Copies the entries unless the
    /// chain already is nothing but a shared half.
    pub fn shared(&self) -> Option<Arc<[AsEntry]>> {
        if self.owned.is_empty() {
            return self.upstream.clone();
        }
        let (upstream, owned) = self.slices();
        Some(upstream.iter().chain(owned).cloned().collect())
    }
}

#[cfg(test)]
impl HopChain {
    /// `entries` with the first `upstream` of them shared (nothing shared for 0).
    pub(crate) fn split(entries: &[AsEntry], upstream: usize) -> Self {
        let (shared, owned) = entries.split_at(upstream);
        HopChain {
            upstream: (upstream > 0).then(|| shared.into()),
            owned: owned.to_vec(),
        }
    }
}

impl From<Vec<AsEntry>> for HopChain {
    /// A chain that owns all of `entries`.
    fn from(entries: Vec<AsEntry>) -> Self {
        HopChain {
            upstream: None,
            owned: entries,
        }
    }
}

impl FromIterator<AsEntry> for HopChain {
    fn from_iter<I: IntoIterator<Item = AsEntry>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl PartialEq for HopChain {
    /// By content: the same entries in the same order, wherever either chain is split.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl core::fmt::Debug for HopChain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a HopChain {
    type Item = &'a AsEntry;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the entries of a [`HopChain`], origin first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    head: core::slice::Iter<'a, AsEntry>,
    tail: core::slice::Iter<'a, AsEntry>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a AsEntry;

    #[inline]
    fn next(&mut self) -> Option<&'a AsEntry> {
        match self.head.next() {
            Some(entry) => Some(entry),
            None => self.tail.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.head.len() + self.tail.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter<'_> {}
