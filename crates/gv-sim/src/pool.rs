//! Engine threads: the OS threads simulation runs execute on.
//!
//! [`Simulation::run_until`](crate::Simulation::run_until) hands its run
//! loop, and with it every process of the run, to one engine thread and
//! blocks until the loop returns. Engine threads are recycled through one
//! process-wide pool, so there is one thread per concurrently running
//! simulation, not one per process, and back-to-back runs reuse the same
//! thread (with its malloc arena and its free list of coroutine stacks).
//!
//! Running the loop on a thread of its own, rather than on the caller's,
//! keeps the processes' allocations out of the main thread's `brk` arena,
//! which glibc trims on large frees: on `main`, bulk-steady took about ten
//! times the page faults per run (DESIGN.md §20).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{self, Thread};

use parking_lot::Mutex;

/// One run with its result delivery. It gets the idle registration of the
/// thread it runs on and files it before delivering.
type Job = Box<dyn FnOnce(Idle) + Send>;

/// Where an engine thread finds its next job.
type Mailbox = Arc<Mutex<Option<Job>>>;

/// An engine thread waiting for a job.
struct Idle {
    thread: Thread,
    mailbox: Mailbox,
}

/// Idle engine threads, most recently idled last.
static IDLE: Mutex<Vec<Idle>> = Mutex::new(Vec::new());

/// Run `f` on an idle engine thread, or on a new one when none is idle,
/// and block until it returns. A panic in `f` resumes on the caller.
pub(crate) fn run<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::sync_channel(1);
    let job: Job = Box::new(move |idle: Idle| {
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        // Idle again before the caller wakes, so its next run finds this
        // thread in the pool.
        IDLE.lock().push(idle);
        let _ = tx.send(result);
    });
    let idle = IDLE.lock().pop();
    match idle {
        Some(engine) => {
            *engine.mailbox.lock() = Some(job);
            engine.thread.unpark();
        }
        None => {
            let mailbox = Arc::new(Mutex::new(Some(job)));
            thread::Builder::new()
                .name("sim-engine".to_string())
                .spawn(move || work(mailbox))
                .expect("failed to spawn a simulation engine thread");
        }
    }
    match rx.recv().expect("engine thread exited mid-run") {
        Ok(result) => result,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// An engine thread's life: take the job in the mailbox and run it, then
/// wait for the next. `park` may return spuriously or on a stale token,
/// hence the inner loop.
fn work(mailbox: Mailbox) {
    loop {
        let job = loop {
            if let Some(job) = mailbox.lock().take() {
                break job;
            }
            thread::park();
        };
        job(Idle {
            thread: thread::current(),
            mailbox: Arc::clone(&mailbox),
        });
    }
}
