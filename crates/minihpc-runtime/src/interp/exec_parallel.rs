//! The parallel index-space executor: fans logical indices out across real
//! OS threads with `std::thread::scope`.
//!
//! Each logical index builds its own [`Frame`], so worker closures share
//! only `&Interp` (whose memory system is lock-protected). The first error
//! wins; remaining workers observe the poison flag and stop at their next
//! index. A worker panic propagates: the scope panics once every worker has
//! been joined.

use super::*;
use std::sync::atomic::AtomicBool;

impl<'e> Interp<'e> {
    /// Run `f(0..total)` across the configured worker pool. `f` must build
    /// its own frame per index (or per worker chunk).
    pub(super) fn run_indices_parallel<F>(&self, total: u64, f: &F) -> IResult<()>
    where
        F: Fn(&Self, u64) -> IResult<()> + Sync,
    {
        if total == 0 {
            return Ok(());
        }
        let workers = (self.config.workers.max(1) as u64).min(total);
        let chunk = total.div_ceil(workers);
        let poison = AtomicBool::new(false);
        let first_error: Mutex<Option<Interrupt>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let poison = &poison;
                let first_error = &first_error;
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(total);
                    for i in lo..hi {
                        if poison.load(Ordering::Relaxed) {
                            return;
                        }
                        if let Err(e) = f(self, i) {
                            poison.store(true, Ordering::Relaxed);
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            return;
                        }
                    }
                });
            }
        });

        match first_error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
