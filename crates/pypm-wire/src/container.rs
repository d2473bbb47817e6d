//! The `PYPMWIRE` container: magic, format version, and a checksummed
//! section table (layout in the crate docs).

use crate::WireError;
use pypm_core::codec::{Cursor, Put};

/// The container magic, first on the wire.
pub const MAGIC: &[u8; 8] = b"PYPMWIRE";

/// The format version this crate reads and writes.
pub const VERSION: u16 = 1;

/// Hard ceiling on the section count a decoder accepts. Real containers
/// carry one to three sections; a count field beyond this is garbage,
/// rejected before the table is even read.
pub const MAX_SECTIONS: usize = 64;

/// Section kind: a canonical computation-graph encoding.
pub const SECTION_GRAPH: u32 = 1;
/// Section kind: a rule set (the legacy `PYPMB1` bytes, verbatim).
pub const SECTION_RULESET: u32 = 2;
/// Section kind: a `pypm.pipeline.v1` JSON report.
pub const SECTION_REPORT: u32 = 3;

/// Bytes before the section table: magic + version + section count.
const HEADER: usize = 12;
/// Bytes per section-table entry: kind + length + checksum.
const ENTRY: usize = 16;

/// FNV-1a 64 — the per-section checksum. Not cryptographic; it exists
/// so random corruption (bit flips, short reads, crossed streams) is an
/// [`WireError::Corrupt`] instead of a plausible misparse.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a container: add sections in order, then [`finish`]. The
/// writer borrows each payload and copies it once, into the container.
///
/// [`finish`]: ContainerWriter::finish
#[derive(Debug, Default)]
pub struct ContainerWriter<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> ContainerWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section. Encoder-side limits are asserted (first-party
    /// encoders never exceed them; decoders must *reject*, not assert).
    pub fn section(&mut self, kind: u32, payload: &'a [u8]) -> &mut Self {
        assert!(self.sections.len() < MAX_SECTIONS, "too many sections");
        assert!(payload.len() <= u32::MAX as usize, "section too large");
        self.sections.push((kind, payload));
        self
    }

    /// Serializes the container.
    pub fn finish(&self) -> Vec<u8> {
        let total: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut buf = Vec::with_capacity(HEADER + ENTRY * self.sections.len() + total);
        buf.extend_from_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(self.sections.len() as u16);
        for (kind, payload) in &self.sections {
            buf.put_u32_le(*kind);
            buf.put_u32_le(payload.len() as u32);
            buf.put_u64_le(fnv1a64(payload));
        }
        for (_, payload) in &self.sections {
            buf.extend_from_slice(payload);
        }
        buf
    }
}

/// A parsed container: checksummed sections by kind, borrowed from the
/// bytes it was parsed from.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Parses and fully validates a container: magic, version, section
    /// table, exact total length, and every section checksum.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; never panics, whatever the input.
    pub fn parse(data: &'a [u8]) -> Result<Container<'a>, WireError> {
        let body = data
            .strip_prefix(MAGIC.as_slice())
            .ok_or(WireError::BadMagic)?;
        let r = &mut Cursor::new(body);
        let (version, count) = (r.u16()?, r.u16()? as usize);
        if version != VERSION {
            return Err(WireError::UnsupportedVersion { got: version });
        }
        if count > MAX_SECTIONS {
            return Err(WireError::Malformed {
                what: "section count",
            });
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            table.push((r.u32()?, r.u32()? as usize, r.u64()?));
        }
        let total = table
            .iter()
            .try_fold(HEADER + ENTRY * count, |total, &(_, len, _)| {
                total.checked_add(len)
            })
            .ok_or(WireError::Malformed {
                what: "section lengths overflow",
            })?;
        if data.len() < total {
            return Err(WireError::Truncated);
        }
        if data.len() > total {
            return Err(WireError::Malformed {
                what: "trailing bytes after the last section",
            });
        }
        let mut sections: Vec<(u32, &'a [u8])> = Vec::with_capacity(count);
        for (kind, len, checksum) in table {
            let payload = r.take(len)?;
            if fnv1a64(payload) != checksum {
                return Err(WireError::Corrupt { kind });
            }
            if sections.iter().any(|(k, _)| *k == kind) {
                return Err(WireError::Malformed {
                    what: "duplicate section kind",
                });
            }
            sections.push((kind, payload));
        }
        Ok(Container { sections })
    }

    /// The payload of the section with this kind, if present. Unknown
    /// kinds are simply never asked for — that is the forward-compat
    /// story: older readers skip sections they do not understand.
    pub fn section(&self, kind: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, p)| p)
    }

    /// The section kinds present, in table order.
    pub fn kinds(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_multi_section_containers_roundtrip() {
        let empty = ContainerWriter::new().finish();
        let parsed = Container::parse(&empty).unwrap();
        assert_eq!(parsed.kinds().count(), 0);

        let mut w = ContainerWriter::new();
        w.section(SECTION_GRAPH, b"gg");
        w.section(SECTION_RULESET, b"");
        w.section(SECTION_REPORT, b"{}");
        let bytes = w.finish();
        let parsed = Container::parse(&bytes).unwrap();
        assert_eq!(parsed.kinds().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(parsed.section(SECTION_GRAPH), Some(&b"gg"[..]));
        assert_eq!(parsed.section(SECTION_REPORT), Some(&b"{}"[..]));
        assert!(parsed.section(99).is_none());
    }

    #[test]
    fn parse_rejects_the_whole_garbage_taxonomy() {
        // Wrong magic.
        assert_eq!(
            Container::parse(b"NOTWIRE!").err(),
            Some(WireError::BadMagic)
        );
        assert_eq!(Container::parse(b"").err(), Some(WireError::BadMagic));
        // Truncated header.
        assert_eq!(
            Container::parse(b"PYPMWIRE").err(),
            Some(WireError::Truncated)
        );
        // Unsupported version.
        let mut v2 = ContainerWriter::new().finish();
        v2[8] = 2;
        assert_eq!(
            Container::parse(&v2).err(),
            Some(WireError::UnsupportedVersion { got: 2 })
        );
        // Absurd section count.
        let mut absurd = ContainerWriter::new().finish();
        absurd[10] = 0xff;
        absurd[11] = 0xff;
        assert_eq!(
            Container::parse(&absurd).err(),
            Some(WireError::Malformed {
                what: "section count"
            })
        );
        // Trailing bytes.
        let mut trailing = ContainerWriter::new().finish();
        trailing.push(0);
        assert!(matches!(
            Container::parse(&trailing),
            Err(WireError::Malformed { .. })
        ));
        // A flipped payload bit fails its checksum.
        let mut w = ContainerWriter::new();
        w.section(SECTION_REPORT, b"payload");
        let mut bytes = w.finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert_eq!(
            Container::parse(&bytes).err(),
            Some(WireError::Corrupt {
                kind: SECTION_REPORT
            })
        );
        // Duplicate kinds are rejected (one payload per kind, no
        // ambiguity about which one a reader would pick).
        let mut w = ContainerWriter::new();
        w.section(SECTION_REPORT, b"a");
        w.section(SECTION_REPORT, b"b");
        assert_eq!(
            Container::parse(&w.finish()).err(),
            Some(WireError::Malformed {
                what: "duplicate section kind"
            })
        );
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        // The canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
