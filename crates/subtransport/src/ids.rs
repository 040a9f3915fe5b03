//! Identifier newtypes for the subtransport layer.

use std::fmt;

/// An ST-level RMS, named by its sending ST when it requests the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StRmsId(pub u64);

impl fmt::Display for StRmsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strms{}", self.0)
    }
}

/// The client an ST RMS is bound to at one of its ends: the protocol that
/// owns the lane (the first byte of its opening header, by convention) and
/// the protocol's own name for it. The creator names it in
/// [`crate::engine::create`]; the receiving world names it once, from the
/// opening header ([`crate::st::StWorld::st_inbound`]). The ST keeps it on
/// the lane and hands it back with every delivery and event, so nothing
/// above the ST keeps a map from lanes to owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Client {
    /// The owning protocol.
    pub proto: u8,
    /// The protocol's name for the lane: a session, a peer and lane, or
    /// anything an application chooses.
    pub id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(StRmsId(4).to_string(), "strms4");
    }
}
