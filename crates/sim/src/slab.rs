//! A free-listed arena for the data unboxed actions work on.
//!
//! A call event carries ids, not data (see [`crate::engine`]): whatever a
//! pending action needs — a packet on the wire, a message waiting for its
//! CPU job — is parked in a [`Slab`] in the world, and the event carries
//! the slot index. Taken slots go on a free list, so a world whose traffic
//! has reached its working size parks without allocating.

/// Values parked by index until taken back.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `value`, returning its slot.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Take back the value parked at `slot`, freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds nothing: every slot is taken exactly once.
    pub fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("slab slot taken twice");
        self.free.push(slot);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_reused_after_take() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.take(a), "a");
        let c = slab.insert("c");
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(slab.take(b), "b");
        assert_eq!(slab.take(c), "c");
        assert_eq!(slab.slots.len(), 2, "two slots served three values");
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.take(a);
        slab.take(a);
    }
}
