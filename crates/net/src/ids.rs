//! Identifier newtypes for the network substrate.

use std::fmt;

/// A host attached to one or more networks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// One abstract network (paper §3.1: "networks are abstract entities, and
/// need not be physically or logically disjoint").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetworkId(pub u32);

impl fmt::Display for NetworkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A network-level RMS, unique across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetRmsId(pub u64);

impl fmt::Display for NetRmsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nrms{}", self.0)
    }
}

/// Correlation token for asynchronous RMS creation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CreateToken(pub u64);

impl fmt::Display for CreateToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tok{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(NetworkId(1).to_string(), "net1");
        assert_eq!(NetRmsId(9).to_string(), "nrms9");
        assert_eq!(CreateToken(2).to_string(), "tok2");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(HostId(1));
        s.insert(HostId(1));
        assert_eq!(s.len(), 1);
        assert!(NetRmsId(1) < NetRmsId(2));
    }
}
