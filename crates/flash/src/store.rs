use bytes::Bytes;

use crate::PageAddr;

/// What a written page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// An application payload.
    Data,
    /// The junk fill value used to patch holes (§3.2 of the paper); junk
    /// pages carry no payload.
    Junk,
}

/// What a page address holds: one of the four states of a write-once page
/// (§2.2, §3.2 of the paper). `D` is how the data is held — `Bytes` when it
/// is owned, `&[u8]` when it is lent from a hot page's slot, a walk's
/// [`crate::Readahead`] or the reply a client decodes it from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Page<D> {
    /// The page holds application data.
    Data(D),
    /// The page was filled with junk.
    Junk,
    /// The page has never been written.
    Unwritten,
    /// The page has been trimmed (garbage collected).
    Trimmed,
}

impl<D> Page<D> {
    /// Returns true if the address has been consumed (written, filled, or
    /// trimmed) and can never accept a write.
    pub fn is_consumed(&self) -> bool {
        !matches!(self, Page::Unwritten)
    }

    /// The page with its data lent.
    pub fn lent(&self) -> Page<&[u8]>
    where
        D: AsRef<[u8]>,
    {
        match self {
            Page::Data(data) => Page::Data(data.as_ref()),
            Page::Junk => Page::Junk,
            Page::Unwritten => Page::Unwritten,
            Page::Trimmed => Page::Trimmed,
        }
    }
}

impl Page<&[u8]> {
    /// The page with a copy of its data.
    pub fn to_owned(self) -> Page<Bytes> {
        match self {
            Page::Data(data) => Page::Data(Bytes::copy_from_slice(data)),
            Page::Junk => Page::Junk,
            Page::Unwritten => Page::Unwritten,
            Page::Trimmed => Page::Trimmed,
        }
    }
}

/// A page discovered while scanning a store during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedPage {
    /// The page address.
    pub addr: PageAddr,
    /// Whether the page's newest record holds data, junk, or a trim marker.
    pub state: ScannedState,
}

/// What a scanned page's newest record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScannedState {
    /// A data payload that passed its CRC.
    Data,
    /// A junk fill.
    Junk,
    /// A tombstone: the page was explicitly trimmed.
    Trimmed,
}

/// A unit's hot/cold occupancy, migration traffic and whole-segment
/// reclamation. An in-memory unit has no cold device: all its pages are hot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Live pages resident in the hot (RAM) tier.
    pub hot_pages: u64,
    /// Live pages resident in the cold (segmented file) tier;
    /// `hot_pages + cold_pages` is the unit's occupancy.
    pub cold_pages: u64,
    /// Segment files currently backing the cold tier.
    pub cold_segments: u64,
    /// Migration passes that moved at least one page hot → cold.
    pub migrations: u64,
    /// Total pages migrated hot → cold.
    pub migrated_pages: u64,
    /// Whole segment files reclaimed below the prefix-trim horizon.
    pub reclaimed_segments: u64,
    /// Live pages released by prefix-trim reclamation.
    pub reclaimed_pages: u64,
}

/// The outcome of a CRC scrub pass over a store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Data records whose checksums were verified.
    pub pages_checked: u64,
    /// Data records that failed: a payload CRC, or a header that no longer
    /// checks where the segment's table says the record is.
    pub errors: u64,
}
