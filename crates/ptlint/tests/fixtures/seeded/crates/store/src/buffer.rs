//! Seeded violation: a lock-order cycle.
use crate::sync::Mutex;

pub struct Pool {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pool {
    pub fn forward(&self) -> u32 {
        let _a = self.a.lock();
        let _b = self.b.lock();
        0
    }

    pub fn backward(&self) -> u32 {
        let _b = self.b.lock();
        let _a = self.a.lock();
        0
    }
}
