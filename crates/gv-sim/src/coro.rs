//! Stackful coroutines: a body on a stack of its own, run in slices on the
//! thread that resumes it. All of gv-sim's unsafe code lives here.
//!
//! A [`Coroutine`] starts on its first [`resume`](Coroutine::resume) and
//! runs until it calls [`suspend`] or its body returns; either way control
//! comes back to the `resume` call. Switching is a user-space swap of
//! stack pointers (`switch_stack`), so a resume costs a few
//! nanoseconds rather than a kernel context switch.
//!
//! * **Stacks.** Each coroutine gets [`STACK_SIZE`] bytes, the size std
//!   gives a spawned thread, mapped with `mmap` under a `PROT_NONE` guard
//!   page at the low end: an overflow faults as it does on a thread. A
//!   finished coroutine's stack goes to a per-thread free list that the
//!   next coroutine on that thread reuses, so a thread never holds more
//!   stacks than it ever had coroutines alive at once.
//! * **Switch.** `switch_stack` follows the x86_64 System V ABI: it saves
//!   the callee-saved registers (rbx, rbp, r12–r15) and the MXCSR and x87
//!   control words on the old stack, stores the old stack pointer, and
//!   restores the same set from the new stack.
//! * **Panics.** A body's panic is caught on its own stack and re-raised
//!   from `resume`, on the resumer's stack.
//! * **Soundness of abandonment.** A coroutine dropped while suspended
//!   mid-body keeps its stack mapped forever (it is leaked, not reused),
//!   since values on that stack may still be borrowed. The engine never
//!   does this: teardown resumes every suspended process until it unwinds.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "gv-sim's coroutine engine has a stack switch (`switch_stack`, \
     `coroutine_trampoline`) and stack mapping (`mmap`) only for x86_64 \
     Linux; port both to this target"
);

/// Usable bytes of each coroutine stack (the guard page comes on top).
const STACK_SIZE: usize = 2 << 20;
const GUARD_SIZE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut u8 = !0usize as *mut u8;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// One mapped stack: a guard page, then [`STACK_SIZE`] usable bytes.
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    const MAPPED: usize = GUARD_SIZE + STACK_SIZE;

    /// A stack from this thread's free list, or a freshly mapped one.
    fn take() -> Stack {
        if let Some(stack) = FREE_STACKS.with(|free| free.borrow_mut().pop()) {
            return stack;
        }
        // SAFETY: an anonymous private mapping aliases no existing memory;
        // the result is checked before use, and the guard page lies inside
        // the fresh mapping.
        let base = unsafe {
            let base = mmap(
                ptr::null_mut(),
                Self::MAPPED,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(base != MAP_FAILED, "mapping a coroutine stack failed");
            assert_eq!(
                mprotect(base, GUARD_SIZE, PROT_NONE),
                0,
                "protecting a coroutine stack's guard page failed"
            );
            base
        };
        STACKS_MAPPED.with(|n| n.set(n.get() + 1));
        Stack {
            base: NonNull::new(base).expect("mmap returned null"),
        }
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: the mapping is `MAPPED` bytes long, so this is its end.
        unsafe { self.base.as_ptr().add(Self::MAPPED) }
    }

    /// Hand the stack to the next coroutine started on this thread.
    fn release(self) {
        // On a thread being torn down the closure, and the stack with
        // it, is dropped unrun: the stack is unmapped instead.
        let _ = FREE_STACKS.try_with(|free| free.borrow_mut().push(self));
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping was made by `take` with this length, and no
        // coroutine runs on it (finished, never started, or thread exit).
        unsafe {
            munmap(self.base.as_ptr(), Self::MAPPED);
        }
    }
}

thread_local! {
    static FREE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    static STACKS_MAPPED: Cell<usize> = const { Cell::new(0) };
    /// The coroutine running on this thread, null on the thread's own stack.
    static CURRENT: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
}

/// Stacks mapped so far on the calling thread (reused ones not counted).
#[cfg(test)]
pub(crate) fn stacks_mapped() -> usize {
    STACKS_MAPPED.with(Cell::get)
}

/// Stacks on the calling thread's free list.
#[cfg(test)]
pub(crate) fn free_stacks() -> usize {
    FREE_STACKS.with(|free| free.borrow().len())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Built, body not yet entered.
    Fresh,
    /// Inside its body, waiting in `suspend`.
    Suspended,
    Running,
    /// Body returned; the stack is free.
    Done,
}

/// What a coroutine and its resumer share. Boxed, so its address is stable
/// while both stacks point at it.
struct Link {
    /// The coroutine's saved stack pointer while it is not running.
    sp: *mut u8,
    /// The resumer's saved stack pointer while the coroutine runs.
    caller: *mut u8,
    status: Status,
    body: Option<Box<dyn FnOnce()>>,
    panic: Option<Box<dyn Any + Send>>,
}

/// A body on a stack of its own. Not `Send`: a coroutine lives and dies on
/// the thread that made it.
pub(crate) struct Coroutine {
    link: NonNull<Link>,
    stack: Option<Stack>,
}

impl Coroutine {
    /// Build a coroutine that runs `body` on a fresh stack once resumed.
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> Coroutine {
        let stack = Stack::take();
        let link = Box::into_raw(Box::new(Link {
            sp: ptr::null_mut(),
            caller: ptr::null_mut(),
            status: Status::Fresh,
            body: Some(body),
            panic: None,
        }));
        // The initial frame, as `switch_stack` leaves a suspended stack:
        // the control words, r15..r12, rbx (carrying the link to the
        // trampoline), rbp, then the trampoline as the return address. The
        // slots above it stay zero, and the trampoline starts 16-byte
        // aligned at `top - 16`.
        const MXCSR_DEFAULT: u64 = 0x1f80;
        const FPU_CW_DEFAULT: u64 = 0x037f;
        let frame: [u64; 10] = [
            MXCSR_DEFAULT | (FPU_CW_DEFAULT << 32),
            0,
            0,
            0,
            0,
            link as u64,
            0,
            coroutine_trampoline as *const () as u64,
            0,
            0,
        ];
        // SAFETY: the frame's 80 bytes lie at the top of the fresh
        // stack's usable range, which nothing else references; `link` is
        // a live allocation owned by the new `Coroutine`.
        unsafe {
            let sp = stack.top().sub(size_of_val(&frame));
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            (*link).sp = sp;
        }
        Coroutine {
            // SAFETY: `Box::into_raw` never returns null.
            link: unsafe { NonNull::new_unchecked(link) },
            stack: Some(stack),
        }
    }

    /// Run the coroutine until it suspends or its body returns, handing
    /// `word` to the `suspend` call it waits in (the first resume enters
    /// the body instead). Returns `true` once the body has returned. A
    /// panic in the body propagates out of here.
    pub(crate) fn resume(&mut self, word: usize) -> bool {
        let link = self.link.as_ptr();
        // SAFETY: `link` is owned by `self`; the coroutine's own accesses
        // to it happen only between this switch and the switch back.
        unsafe {
            assert!(
                matches!((*link).status, Status::Fresh | Status::Suspended),
                "resumed a coroutine that is running or done"
            );
            (*link).status = Status::Running;
            let outer = CURRENT.replace(link);
            switch_stack(&mut (*link).caller, (*link).sp, word);
            CURRENT.set(outer);
            let done = (*link).status == Status::Done;
            if done {
                if let Some(stack) = self.stack.take() {
                    stack.release();
                }
            }
            if let Some(payload) = (*link).panic.take() {
                panic::resume_unwind(payload);
            }
            done
        }
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `link` came from `Box::into_raw` in `new` and the
        // coroutine is not running (a running one is borrowed by `resume`).
        let link = unsafe { Box::from_raw(self.link.as_ptr()) };
        if let Some(stack) = self.stack.take() {
            match link.status {
                Status::Fresh | Status::Done => stack.release(),
                // Frames on it may still be borrowed: never reuse it.
                _ => std::mem::forget(stack),
            }
        }
    }
}

/// Suspend the running coroutine and return to its resumer. Returns the
/// word passed to the `resume` that continues it.
///
/// Panics when called outside a coroutine.
pub(crate) fn suspend() -> usize {
    let link = CURRENT.get();
    assert!(!link.is_null(), "suspend called outside a coroutine");
    // SAFETY: `CURRENT` points at the link of the coroutine running on
    // this thread, which its `resume` call keeps alive until we switch
    // back to it.
    unsafe {
        (*link).status = Status::Suspended;
        switch_stack(&mut (*link).sp, (*link).caller, 0)
    }
}

/// First Rust frame on a coroutine stack: run the body, record how it
/// ended, and switch back for the last time.
extern "C" fn coroutine_main(link: *mut Link) -> ! {
    // SAFETY: the trampoline passes the link stored in the initial frame,
    // which the owning `Coroutine` keeps alive while the body runs.
    unsafe {
        let body = (*link).body.take().expect("coroutine entered twice");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            (*link).panic = Some(payload);
        }
        (*link).status = Status::Done;
        let mut dead = ptr::null_mut();
        switch_stack(&mut dead, (*link).caller, 0);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Entered by `ret` from the first `switch_stack` into a coroutine, with
/// the link in rbx. Calls `coroutine_main`, which never returns. Its CFI
/// marks the return address undefined, so unwinders and backtraces stop
/// here: this is the outermost frame of a coroutine stack.
///
/// # Safety
///
/// Never called: only `Coroutine::new` names it, as the return address of
/// a fresh stack's initial frame, whose rbx slot holds a live link.
#[unsafe(naked)]
unsafe extern "C" fn coroutine_trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call {main}",
        "ud2",
        ".cfi_endproc",
        main = sym coroutine_main,
    )
}

/// Save the callee-saved state on the current stack, store the stack
/// pointer in `*save`, switch to the stack at `to`, restore its state and
/// return there, with `word` as the return value.
///
/// # Safety
///
/// `save` must be valid for a write, and `to` must be a stack pointer that
/// `switch_stack` saved (or `Coroutine::new` laid out) on a stack that is
/// still mapped and not running, whose frames are still live.
#[unsafe(naked)]
unsafe extern "C" fn switch_stack(save: *mut *mut u8, to: *mut u8, word: usize) -> usize {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_and_suspend_pass_words_both_ways() {
        let seen = std::rc::Rc::new(Cell::new(0));
        let inner = seen.clone();
        let mut co = Coroutine::new(Box::new(move || {
            inner.set(1);
            let w = suspend();
            inner.set(w);
        }));
        assert!(!co.resume(0));
        assert_eq!(seen.get(), 1);
        assert!(co.resume(42));
        assert_eq!(seen.get(), 42);
    }

    #[test]
    fn a_body_panic_surfaces_from_resume_and_frees_the_stack() {
        let mut co = Coroutine::new(Box::new(|| panic!("inside")));
        let free = free_stacks();
        let err = panic::catch_unwind(AssertUnwindSafe(|| co.resume(0))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inside"));
        assert_eq!(free_stacks(), free + 1);
    }

    fn mxcsr() -> u32 {
        let mut word = 0u32;
        // SAFETY: `stmxcsr` only stores the control word into `word`.
        unsafe { core::arch::asm!("stmxcsr [{}]", in(reg) &mut word) };
        word
    }

    fn set_mxcsr(word: u32) {
        // SAFETY: `ldmxcsr` only loads a control word; callers pass the
        // default word or it with the rounding bits changed.
        unsafe { core::arch::asm!("ldmxcsr [{}]", in(reg) &word) };
    }

    #[test]
    fn each_side_keeps_its_float_control_word() {
        const ROUND_TOWARD_ZERO: u32 = 0x6000;
        let outer = mxcsr();
        let mut co = Coroutine::new(Box::new(move || {
            set_mxcsr(outer | ROUND_TOWARD_ZERO);
            suspend();
            let kept = mxcsr();
            set_mxcsr(outer);
            assert_eq!(kept, outer | ROUND_TOWARD_ZERO);
        }));
        assert!(!co.resume(0));
        assert_eq!(mxcsr(), outer, "the coroutine's rounding mode leaked out");
        assert!(co.resume(0));
    }

    #[test]
    fn finished_stacks_are_reused() {
        let before = stacks_mapped();
        for _ in 0..100 {
            let mut co = Coroutine::new(Box::new(|| {
                suspend();
            }));
            assert!(!co.resume(0));
            assert!(co.resume(0));
        }
        assert!(stacks_mapped() - before <= 1);
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}
