//! Stand-in for `crossbeam`: scoped threads over `std::thread::scope` and
//! a bounded multi-producer multi-consumer channel over a mutex and two
//! condition variables — the parts the engine and the server name.

pub mod thread {
    use std::marker::PhantomData;

    /// Handed to the `scope` closure; `spawn` closures take a `&Scope`
    /// argument as crossbeam's do (the engine ignores it).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
        _scope: PhantomData<&'scope ()>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
                _scope: PhantomData,
            }
        }
    }

    /// Run `f` with a scope whose threads are all joined before returning.
    /// std's scope propagates a child panic by panicking itself, so the
    /// `Err` arm crossbeam documents is never produced here.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            // Every update leaves the queue valid, so a panicked holder
            // does not invalidate it.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// A channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.queue.len() >= self.0.capacity {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.queue.len() < self.0.capacity {
                    st.queue.push_back(msg);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .0
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            let last = st.receivers == 0;
            drop(st);
            if last {
                self.0.not_full.notify_all();
            }
        }
    }
}
