//! Stackful coroutines for the engine's ranks: a stack mapped with a
//! guard page below it, a switch that saves the callee-saved registers
//! plus `rsp`, and the malloc setting a heap shared by every rank needs
//! ([`settle_heap`]).
//!
//! A [`Context`] is where a suspended coroutine's stack pointer lives:
//! everything else it needs to resume (the callee-saved registers and
//! the return address) sits on its own stack. The stack pointer is null
//! while the context runs, so a switch into a context that another
//! carrier thread is still saving waits for the save to land.

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "empi-netsim runs ranks as coroutines whose stack switch is x86_64 assembly: \
     this target_arch is not x86_64"
);

#[cfg(not(target_os = "linux"))]
compile_error!("empi-netsim maps rank stacks with Linux mmap flags: this target_os is not linux");

use std::sync::atomic::{AtomicPtr, Ordering};

/// Usable bytes of one rank's stack: what `std::thread` gives a spawned
/// thread by default, which is what every rank had as an OS thread.
const STACK_BYTES: usize = 2 << 20;

/// The `PROT_NONE` page below each stack: an overflow faults here
/// instead of writing into the neighbouring mapping. std's overflow
/// handler only recognises a thread's own guard page, so the process
/// dies of a plain SIGSEGV, without a "has overflowed its stack" line.
const GUARD_BYTES: usize = 4 << 10;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
/// The ceiling glibc's dynamic mmap threshold climbs to on 64-bit
/// targets (`DEFAULT_MMAP_THRESHOLD_MAX`).
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn empi_netsim_switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize;
    fn empi_netsim_trampoline();
}

// `empi_netsim_switch(save, to, arg)` (System V: rdi, rsi, rdx) pushes
// the callee-saved registers, stores `rsp` through `save`, loads `to`
// as the new `rsp`, pops the registers saved there and returns `arg` to
// whoever suspended on that stack. Rank code never changes the MXCSR or
// x87 control words, so they are not part of a context.
//
// `empi_netsim_trampoline` is where a new stack first returns to: it
// calls the entry function left in r12 with (arg, the data word left in
// r13). Its CFI marks the return address undefined, so an unwinder or a
// backtrace walking up a coroutine's stack stops here.
core::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl empi_netsim_switch",
    ".hidden empi_netsim_switch",
    ".type empi_netsim_switch,@function",
    "empi_netsim_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "mov rax, rdx",
    "ret",
    ".size empi_netsim_switch, .-empi_netsim_switch",
    "",
    ".p2align 4",
    ".globl empi_netsim_trampoline",
    ".hidden empi_netsim_trampoline",
    ".type empi_netsim_trampoline,@function",
    "empi_netsim_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, rax",
    "mov rsi, r13",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size empi_netsim_trampoline, .-empi_netsim_trampoline",
);

/// Fix malloc's thresholds, once per process, where glibc's own dynamic
/// rule ends up: allocations below 32 MiB come from the heap, and the
/// heap is trimmed only when 64 MiB at its top are free.
///
/// With every rank on one thread, every rank allocates from one arena.
/// The dynamic rule trims once the free top exceeds twice the largest
/// buffer seen, so two 2 MB message buffers freed in one round trip
/// (plus the heap's growth pad) went back to the OS on every round trip
/// and were faulted in again — about a thousand page faults per 2 MB
/// ping-pong. Per-thread arenas had hidden that.
pub(crate) fn settle_heap() {
    static SETTLED: std::sync::Once = std::sync::Once::new();
    SETTLED.call_once(|| {
        // SAFETY: `mallopt` only updates the allocator's parameters.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
            mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX);
        }
    });
}

/// A saved execution context: the stack pointer of a suspended
/// coroutine or carrier thread, null while that context runs.
pub(crate) struct Context(AtomicPtr<u8>);

impl Context {
    /// No saved context yet: a thread's own until its first switch
    /// saves it, or a coroutine's until [`coroutine`] lays out its
    /// first frame.
    pub(crate) const fn new() -> Self {
        Context(AtomicPtr::new(std::ptr::null_mut()))
    }
}

/// Suspend the running context into `from` and resume `to`, handing it
/// `arg`. Returns the `arg` of the switch that later resumes `from`.
///
/// # Safety
///
/// `from` must belong to the context that is running, and nothing else
/// may switch into `from` until this call has saved it. `to` must be a
/// suspended context (or one being saved right now) that no other
/// switch resumes concurrently, and its stack must stay mapped while it
/// runs.
pub(crate) unsafe fn switch(from: &Context, to: &Context, arg: usize) -> usize {
    // A context another carrier is still saving reads null until the
    // `mov [rdi], rsp` of its switch lands; x86 stores are ordered, so
    // the registers pushed before it are visible once it is.
    let sp = loop {
        let sp = to.0.swap(std::ptr::null_mut(), Ordering::Acquire);
        if !sp.is_null() {
            break sp;
        }
        std::hint::spin_loop();
    };
    // SAFETY: `sp` was saved by `empi_netsim_switch` or laid out by
    // `coroutine`, so popping six registers and a return address from
    // it is what the routine expects; the caller guarantees the rest.
    unsafe { empi_netsim_switch(from.0.as_ptr(), sp, arg) }
}

/// One coroutine's stack: `STACK_BYTES` readable and writable, above a
/// guard page, reserved without committing memory.
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: the mapping is plain memory owned by this value; which thread
// unmaps it does not matter.
unsafe impl Send for Stack {}
// SAFETY: as above; `&Stack` only exposes the address.
unsafe impl Sync for Stack {}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous mapping at an address of the kernel's
        // choosing touches no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1 && !base.is_null(),
            "mmap of a {len}-byte rank stack failed"
        );
        // SAFETY: the guard is the first page of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a rank stack's guard page failed");
        Stack { base }
    }

    /// One past the highest usable byte.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of exactly this
        // length, and no context runs on it any more (see `coroutine`).
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

/// A new coroutine: map a fresh stack and make `ctx` resume into it by
/// calling `entry(arg, data)` with the `arg` of that first switch. The
/// stack must outlive every switch into `ctx` and every instruction the
/// coroutine runs.
pub(crate) fn coroutine(
    entry: unsafe extern "C" fn(usize, *mut u8) -> !,
    data: *mut u8,
    ctx: &Context,
) -> Stack {
    let stack = Stack::new();
    // Six registers in the order `empi_netsim_switch` pops them, then
    // its return address: the trampoline. After that `ret`, `rsp` is
    // 16-byte aligned, so the trampoline's `call` enters `entry` with
    // the alignment the ABI promises.
    let frame: [usize; 7] = [
        0,                                            // r15
        0,                                            // r14
        data as usize,                                // r13
        entry as usize,                               // r12
        0,                                            // rbx
        0,                                            // rbp: ends frame-pointer walks
        empi_netsim_trampoline as *const () as usize, // return address
    ];
    let sp = stack.top().wrapping_sub(16 + 8 * frame.len());
    // SAFETY: `sp .. sp + 56` lies inside the fresh, writable mapping,
    // below its top, and is 8-byte aligned.
    unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<usize>(), frame.len()) };
    ctx.0.store(sp, Ordering::Release);
    stack
}
