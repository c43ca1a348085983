//! The flat beacon — the representation [`Pcb`] had before its entries became a
//! [`HopChain`](crate::HopChain), kept as the test oracle for it: one `Vec<AsEntry>`, every
//! reading of the path a loop over that vector, every signed payload re-encoded from
//! scratch. It shares the header and entry codecs with [`Pcb`] and nothing that walks a
//! chain.

use crate::extensions::PcbExtensions;
use crate::hop::{AsEntry, HopInfo, StaticInfo};
use crate::{Pcb, PcbId};
use irec_crypto::{Signer, Verifier};
use irec_types::{
    AsId, Bandwidth, IfId, IrecError, IsdId, LinkMetrics, PathMetrics, Result, SimTime,
};
use irec_wire::{Decode, Encode, WireReader, WireWriter};

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlatPcb {
    pub origin_isd: IsdId,
    pub origin: AsId,
    pub sequence: u64,
    pub created_at: SimTime,
    pub expires_at: SimTime,
    pub extensions: PcbExtensions,
    pub entries: Vec<AsEntry>,
}

impl FlatPcb {
    /// `pcb`, entry by entry.
    pub fn of(pcb: &Pcb) -> Self {
        FlatPcb {
            origin_isd: pcb.origin_isd,
            origin: pcb.origin,
            sequence: pcb.sequence,
            created_at: pcb.created_at,
            expires_at: pcb.expires_at,
            extensions: pcb.extensions,
            entries: pcb.entries.iter().cloned().collect(),
        }
    }

    /// The same beacon as a [`Pcb`] whose chain shares its first `upstream` entries and
    /// owns the rest.
    pub fn chained(&self, upstream: usize) -> Pcb {
        Pcb {
            origin_isd: self.origin_isd,
            origin: self.origin,
            sequence: self.sequence,
            created_at: self.created_at,
            expires_at: self.expires_at,
            extensions: self.extensions,
            entries: crate::HopChain::split(&self.entries, upstream),
        }
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(self.origin_isd.0 as u64);
        w.put_varint(self.origin.value());
        w.put_varint(self.sequence);
        w.put_varint(self.created_at.as_micros());
        w.put_varint(self.expires_at.as_micros());
        self.extensions.encode(&mut w);
        w.into_bytes()
    }

    /// The canonical encoding of the header and the first `n` entries, without a count.
    fn prefix_bytes(&self, n: usize) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_raw(&self.header_bytes());
        for entry in &self.entries[..n] {
            entry.encode(&mut w);
        }
        w.into_bytes()
    }

    /// What entry `i` signs.
    pub fn signed_payload(&self, i: usize) -> Vec<u8> {
        let entry = &self.entries[i];
        AsEntry::signed_payload(&self.prefix_bytes(i), &entry.hop, &entry.static_info)
    }

    /// `Pcb::extend`, check for check, signing the payload built from scratch.
    pub fn extend(
        &mut self,
        ingress: IfId,
        egress: IfId,
        static_info: StaticInfo,
        signer: &Signer,
    ) -> Result<()> {
        let asn = signer.asn();
        if self.contains_as(asn) {
            return Err(IrecError::policy("loop"));
        }
        if self.entries.is_empty() {
            if asn != self.origin {
                return Err(IrecError::policy("first entry not by the origin"));
            }
            if !ingress.is_none() {
                return Err(IrecError::policy("origin entry with ingress"));
            }
        } else if ingress.is_none() {
            return Err(IrecError::policy("transit entry without ingress"));
        }
        if egress.is_none() {
            return Err(IrecError::policy("entry without egress"));
        }
        let hop = HopInfo {
            asn,
            ingress,
            egress,
        };
        let prefix = self.prefix_bytes(self.entries.len());
        let signature = signer.sign(&AsEntry::signed_payload(&prefix, &hop, &static_info));
        self.entries.push(AsEntry {
            hop,
            static_info,
            signature,
        });
        Ok(())
    }

    /// `Pcb::verify`, check for check.
    pub fn verify(&self, verifier: &Verifier) -> Result<()> {
        if self.has_loop() {
            return Err(IrecError::policy("beacon path contains a loop"));
        }
        if self.expires_at <= self.created_at {
            return Err(IrecError::policy("beacon expires before it was created"));
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if i == 0 {
                if entry.hop.asn != self.origin || !entry.hop.is_origin() {
                    return Err(IrecError::verification("invalid origin entry"));
                }
            } else if entry.hop.is_origin() {
                return Err(IrecError::verification("transit entry without ingress"));
            }
            verifier.verify_from(entry.hop.asn, &[&self.signed_payload(i)], &entry.signature)?;
        }
        Ok(())
    }

    pub fn verify_with_id(&self, verifier: &Verifier) -> Result<PcbId> {
        self.verify(verifier).map(|()| self.digest())
    }

    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_raw(&self.header_bytes());
        w.put_varint(self.entries.len() as u64);
        for entry in &self.entries {
            entry.encode(&mut w);
        }
        w.into_bytes()
    }

    pub fn digest(&self) -> PcbId {
        PcbId(irec_crypto::sha256(&self.wire_bytes()))
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut reader = WireReader::new(bytes);
        let origin_isd =
            IsdId(u16::try_from(reader.get_varint()?).map_err(|_| IrecError::decode("ISD id"))?);
        let origin = AsId(reader.get_varint()?);
        let sequence = reader.get_varint()?;
        let created_at = SimTime::from_micros(reader.get_varint()?);
        let expires_at = SimTime::from_micros(reader.get_varint()?);
        let extensions = PcbExtensions::decode(&mut reader)?;
        let count = reader.get_varint()?;
        if count > 1024 {
            return Err(IrecError::decode("implausible entry count"));
        }
        let entries = (0..count)
            .map(|_| AsEntry::decode(&mut reader))
            .collect::<Result<_>>()?;
        Ok(FlatPcb {
            origin_isd,
            origin,
            sequence,
            created_at,
            expires_at,
            extensions,
            entries,
        })
    }

    pub fn contains_as(&self, asn: AsId) -> bool {
        self.entries.iter().any(|e| e.hop.asn == asn)
    }

    pub fn has_loop(&self) -> bool {
        self.entries
            .iter()
            .enumerate()
            .any(|(i, e)| self.entries[..i].iter().any(|p| p.hop.asn == e.hop.asn))
    }

    pub fn path_metrics(&self) -> PathMetrics {
        let mut metrics = PathMetrics::EMPTY;
        for entry in &self.entries {
            metrics = metrics.extend_intra(LinkMetrics::new(
                entry.static_info.intra_latency,
                Bandwidth::MAX,
            ));
            metrics = metrics.extend(LinkMetrics::new(
                entry.static_info.link_latency,
                entry.static_info.link_bandwidth,
            ));
        }
        metrics
    }

    pub fn link_keys(&self) -> Vec<(AsId, IfId)> {
        self.entries
            .iter()
            .map(|e| (e.hop.asn, e.hop.egress))
            .collect()
    }
}
