//! Stand-in for `bytes`: the growable buffer the wire decoder names.

use std::ops::Deref;

/// A growable byte buffer consumed from the front.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Remove and return the first `at` bytes. Panics when `at` exceeds
    /// the length, as the published crate does.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.0.len(), "split_to out of bounds");
        let rest = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, rest))
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}
