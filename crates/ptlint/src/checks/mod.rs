//! The lock-order check and the lexed-file cache it reads the
//! workspace through.

pub mod locks;

use crate::lexer::LexedFile;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The workspace under analysis: a root directory plus a cache of lexed
/// files, so a file that declares several locks is lexed once.
pub struct Workspace {
    root: PathBuf,
    cache: RefCell<BTreeMap<String, Rc<LexedFile>>>,
}

impl Workspace {
    /// A workspace rooted at `root`.
    pub fn new(root: &Path) -> Workspace {
        Workspace {
            root: root.to_path_buf(),
            cache: RefCell::new(BTreeMap::new()),
        }
    }

    /// Read a workspace-relative file as text; `None` if unreadable.
    pub fn read(&self, rel: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(rel)).ok()
    }

    /// Lex a workspace-relative Rust file, caching the result.
    pub fn lex(&self, rel: &str) -> Option<Rc<LexedFile>> {
        if let Some(f) = self.cache.borrow().get(rel) {
            return Some(Rc::clone(f));
        }
        let text = self.read(rel)?;
        let lexed = Rc::new(LexedFile::lex(&text));
        self.cache
            .borrow_mut()
            .insert(rel.to_string(), Rc::clone(&lexed));
        Some(lexed)
    }

    /// Number of distinct files lexed so far (feeds `files_scanned`).
    pub fn files_lexed(&self) -> usize {
        self.cache.borrow().len()
    }
}
