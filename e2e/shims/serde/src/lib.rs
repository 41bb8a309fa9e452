//! Stand-in for `serde`: the model crate derives `Serialize` and
//! `Deserialize` but nothing in the tree serializes through them, so the
//! derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};
