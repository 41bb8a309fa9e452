//! Exclusive store-directory lock.
//!
//! [`crate::db::Database::open`] acquires an advisory exclusive lock on a
//! `store.lock` file inside the store directory *before* touching any
//! page or WAL bytes, so a second process — say, a `pt` CLI run against a
//! directory a `pt serve` process already owns — fails fast with a typed
//! [`StoreError::Locked`] instead of silently mutating pages behind the
//! first process's buffer pool.
//!
//! The lock is a POSIX `fcntl(F_SETLK)` record lock, chosen over
//! `flock(2)` deliberately: record locks are owned *per process*, not per
//! descriptor. Two consequences matter here:
//!
//! * A crash-simulation test that leaks a `Database`
//!   (`std::mem::forget`) and reopens the same directory in the same
//!   process still succeeds — exactly the recovery path those tests
//!   exercise — while any *other* process is still refused.
//! * The kernel drops the lock the instant the owning process exits, so
//!   a crashed server never leaves a stale lock behind (unlike lock
//!   files implemented by `O_EXCL` creation, which require manual
//!   cleanup and a "is the pid still alive" heuristic).
//!
//! Cross-process exclusion is implemented on Linux (the CI and
//! deployment target). On other targets — and under Miri, which cannot
//! model the `fcntl` FFI call — acquisition degrades to creating the
//! lock file without kernel-level exclusion; the in-process semantics
//! are unchanged.

use crate::error::{Result, StoreError};
#[expect(
    clippy::disallowed_types,
    reason = "fcntl record locks need a real host file descriptor, not a Vfs handle"
)]
use std::fs::File;
use std::path::Path;

/// Name of the lock file inside the store directory.
pub const LOCK_FILE: &str = "store.lock";

/// An acquired exclusive store-directory lock. Dropping the value closes
/// the descriptor, which releases the record lock.
#[derive(Debug)]
pub struct DirLock {
    // Keeps the descriptor — and with it the kernel lock — alive.
    #[expect(
        clippy::disallowed_types,
        reason = "fcntl record locks need a real host file descriptor, not a Vfs handle"
    )]
    _file: File,
}

impl DirLock {
    /// Acquire the exclusive lock for `dir`, creating the lock file if
    /// needed. Returns [`StoreError::Locked`] when another process holds
    /// it; any other failure surfaces as the underlying I/O error.
    pub fn acquire(dir: &Path) -> Result<DirLock> {
        let path = dir.join(LOCK_FILE);
        #[expect(
            clippy::disallowed_types,
            reason = "the lock file must be a real kernel fd for fcntl(F_SETLK)"
        )]
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io_at(&path, e))?;
        sys::lock_exclusive(&file).map_err(|e| {
            // fcntl reports a conflicting lock as EAGAIN or EACCES
            // depending on the platform; both mean "someone else owns
            // the store".
            use std::io::ErrorKind;
            if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::PermissionDenied
            ) {
                StoreError::Locked(format!("{} is held by another process", path.display()))
            } else {
                StoreError::io_at(&path, e)
            }
        })?;
        // Best-effort breadcrumb for a human inspecting a busy store; the
        // kernel lock, not this content, is the actual exclusion.
        let _ = sys::write_pid(&file);
        Ok(DirLock { _file: file })
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
#[expect(
    clippy::disallowed_types,
    reason = "FFI shim over fcntl; operates on the real descriptor by design"
)]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // `struct flock` for Linux with 64-bit `off_t` (x86-64, aarch64, …):
    // the two shorts pad to the 8-byte alignment of `l_start`, matching
    // the glibc/musl layout under `#[repr(C)]`.
    #[repr(C)]
    struct Flock {
        l_type: i16,
        l_whence: i16,
        l_start: i64,
        l_len: i64,
        l_pid: i32,
    }

    const F_SETLK: i32 = 6;
    const F_WRLCK: i16 = 1;
    const SEEK_SET: i16 = 0;

    extern "C" {
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    }

    /// Non-blocking whole-file exclusive record lock (`l_len == 0` means
    /// "to end of file, however far it grows").
    pub fn lock_exclusive(file: &File) -> std::io::Result<()> {
        let mut fl = Flock {
            l_type: F_WRLCK,
            l_whence: SEEK_SET,
            l_start: 0,
            l_len: 0,
            l_pid: 0,
        };
        // SAFETY: `fd` is a valid open descriptor for the duration of the
        // call, and `fl` is a correctly laid-out `struct flock` for this
        // target ABI; the kernel reads/writes it only during the call and
        // does not retain the pointer.
        let rc = unsafe { fcntl(file.as_raw_fd(), F_SETLK, &mut fl as *mut Flock) };
        if rc == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn write_pid(file: &File) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        file.set_len(0)?;
        let mut f = file;
        f.seek(SeekFrom::Start(0))?;
        writeln!(f, "{}", std::process::id())
    }
}

#[cfg(any(not(target_os = "linux"), miri))]
#[expect(
    clippy::disallowed_types,
    reason = "signature parity with the linux sys module above"
)]
mod sys {
    use std::fs::File;

    pub fn lock_exclusive(_file: &File) -> std::io::Result<()> {
        Ok(())
    }

    pub fn write_pid(_file: &File) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests take the directory lock in host scratch directories"
)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pt-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_creates_lock_file() {
        let dir = tmpdir("create");
        let lock = DirLock::acquire(&dir).unwrap();
        assert!(dir.join(LOCK_FILE).exists());
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_process_reacquire_succeeds() {
        // POSIX record locks are per-process: a leaked handle (the crash
        // tests' `std::mem::forget(db)`) must not wedge the *same*
        // process out of its own store. Cross-process exclusion is
        // exercised end-to-end in crates/cli/tests/lock_exclusion.rs,
        // which needs a second real process.
        let dir = tmpdir("reacquire");
        let first = DirLock::acquire(&dir).unwrap();
        std::mem::forget(first);
        DirLock::acquire(&dir).expect("same process may always reacquire");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_on_drop_allows_reacquire() {
        let dir = tmpdir("drop");
        drop(DirLock::acquire(&dir).unwrap());
        DirLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn lock_file_records_pid() {
        let dir = tmpdir("pid");
        let _lock = DirLock::acquire(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(text.trim(), std::process::id().to_string());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
