//! Recycled OS threads for simulation processes.
//!
//! Every process runs on an OS thread of its own, and most processes are
//! short-lived: an SPMD rank, a cluster session. Creating one thread per
//! process made thread creation most of a workload's set-up time, so a
//! finished process hands its thread back here and a later spawn reuses
//! it. The pool is process-wide; simulations on different OS threads share
//! it, and a worker belongs to exactly one process at a time.
//!
//! A recycled thread keeps its glibc per-thread malloc cache, filled with
//! whatever the previous process freed. Handing that cache to a process of
//! a different shape grows peak memory, so a spawn takes the idle worker
//! that last ran a process of the same name (`spmd-3`, `gpu-sched`) and
//! falls back to the most recently idled one.

use std::sync::Arc;
use std::thread::{self, Thread};

use parking_lot::Mutex;

/// One process body with its exit protocol. It gets the [`Worker`] it
/// runs on and returns it to the pool by dropping it.
pub(crate) type Job = Box<dyn FnOnce(Worker) + Send>;

/// Where a worker finds its next job and the name of the process it
/// belongs to.
type Mailbox = Arc<Mutex<Option<(String, Job)>>>;

/// A worker waiting for a job.
struct Idle {
    /// Name of the process it ran last: the affinity key.
    last: String,
    thread: Thread,
    mailbox: Mailbox,
}

/// Idle workers, most recently idled last.
static IDLE: Mutex<Vec<Idle>> = Mutex::new(Vec::new());

/// The worker a job runs on. Dropping it makes the worker idle, so a job
/// can offer its thread for the next spawn before it has quite returned:
/// the next job waits in the mailbox until this one ends.
pub(crate) struct Worker {
    name: String,
    mailbox: Mailbox,
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A job that unwinds out of its exit protocol takes the thread
        // down with it; such a worker must not be handed more work.
        if thread::panicking() {
            return;
        }
        IDLE.lock().push(Idle {
            last: std::mem::take(&mut self.name),
            thread: thread::current(),
            mailbox: Arc::clone(&self.mailbox),
        });
    }
}

/// Run `job`, the body of a process called `name`, on an idle worker, or
/// on a new one when none is idle. Returns the thread that runs it.
pub(crate) fn run(name: &str, job: Job) -> Thread {
    let idle = {
        let mut idle = IDLE.lock();
        match idle.iter().rposition(|w| w.last == name) {
            Some(i) => Some(idle.remove(i)),
            None => idle.pop(),
        }
    };
    let next = Some((name.to_string(), job));
    match idle {
        Some(worker) => {
            *worker.mailbox.lock() = next;
            worker.thread.unpark();
            worker.thread
        }
        None => {
            let mailbox = Arc::new(Mutex::new(next));
            thread::Builder::new()
                .name("sim-worker".to_string())
                .spawn(move || work(mailbox))
                .expect("failed to spawn simulation worker thread")
                .thread()
                .clone()
        }
    }
}

/// A worker's life: take the job in the mailbox and run it, then wait for
/// the next. `park` may return spuriously or on a token left by a job's
/// own wake-ups, hence the inner loop.
fn work(mailbox: Mailbox) {
    loop {
        let (name, job) = loop {
            if let Some(next) = mailbox.lock().take() {
                break next;
            }
            thread::park();
        };
        job(Worker {
            name,
            mailbox: Arc::clone(&mailbox),
        });
    }
}
