//! Seeded violations: a hot-path unwrap and a lock-order cycle.
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

    pub fn hot(&self, v: Option<u32>) -> u32 {
        v.unwrap()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        Some(1u32).unwrap();
    }
}
