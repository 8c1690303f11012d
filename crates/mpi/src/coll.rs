//! Collective operations, with the classic algorithm selections used by
//! MPICH/MVAPICH (the paper's substrates):
//!
//! * `barrier` — dissemination.
//! * `bcast` — binomial tree for short messages, van-de-Geijn
//!   scatter + ring-allgather for long ones.
//! * `reduce` — binomial tree (commutative operators).
//! * `allreduce` — recursive doubling (power-of-two), otherwise
//!   reduce-to-root + bcast.
//! * `allgather` — recursive doubling (power-of-two), otherwise ring;
//!   ring for long messages.
//! * `alltoall` — Bruck for short messages (log n rounds — this is why
//!   the paper's 64-rank 1-byte alltoall costs ~10 one-way latencies,
//!   not 63), pairwise exchange for long ones.
//! * `alltoallv` — pairwise exchange.
//!
//! Every rank must call each collective in the same order (as in MPI);
//! an internal per-communicator sequence number keeps successive
//! collectives from cross-matching.

use crate::comm::Comm;
use crate::types::{
    as_bytes, copy_from_bytes, vec_from_bytes, Pod, Src, Tag, TagSel, RESERVED_TAG_BASE,
};

/// Message-size switch: binomial vs scatter-allgather broadcast.
pub const BCAST_LONG_THRESHOLD: usize = 12 << 10;
/// Within the scatter-allgather broadcast: recursive-doubling allgather
/// below this size, ring at or above (MPICH's 512 KB switch).
pub const BCAST_RING_THRESHOLD: usize = 512 << 10;
/// Message-size switch: Bruck vs pairwise alltoall (per-block bytes).
pub const ALLTOALL_BRUCK_THRESHOLD: usize = 256;
/// Message-size switch: recursive-doubling vs ring allgather (MPICH
/// uses recursive doubling up to 512 KB total for power-of-two comms).
pub const ALLGATHER_LONG_THRESHOLD: usize = 512 << 10;

/// Static per-round labels for the tracer's phase stack (labels must be
/// `&'static str`; rounds beyond the table share the last label).
const ROUND_LABELS: [&str; 16] = [
    "round0", "round1", "round2", "round3", "round4", "round5", "round6", "round7", "round8",
    "round9", "round10", "round11", "round12", "round13", "round14", "round15+",
];

fn round_label(k: usize) -> &'static str {
    ROUND_LABELS[k.min(ROUND_LABELS.len() - 1)]
}

/// Binomial-tree neighbours of `rank` in a broadcast rooted at `root`
/// over `n` ranks: the parent to receive from (`None` at the root) and
/// the children to forward to, in send order (largest subtree first).
pub fn binomial_tree(
    rank: usize,
    root: usize,
    n: usize,
) -> (Option<usize>, impl Iterator<Item = usize>) {
    let vrank = (rank + n - root) % n;
    let real = move |v: usize| (v + root) % n;
    // `mask` stops at vrank's lowest set bit (for the root it runs
    // past `n`); every smaller power of two addresses one child.
    let mut mask = 1usize;
    while mask < n && vrank & mask == 0 {
        mask <<= 1;
    }
    let parent = (mask < n).then(|| real(vrank - mask));
    let children = std::iter::successors(Some(mask >> 1), |m| Some(m >> 1))
        .take_while(|&m| m > 0)
        .filter(move |&m| vrank + m < n)
        .map(move |m| real(vrank + m));
    (parent, children)
}

#[derive(Clone, Copy)]
enum Op {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Allreduce = 4,
    Gather = 5,
    Scatter = 6,
    Allgather = 7,
    Alltoall = 8,
    Alltoallv = 9,
}

impl<'h> Comm<'h> {
    fn coll_tag(&self, op: Op) -> Tag {
        self.reserved_tag(op as u32)
    }

    /// Mint a tag in the reserved collective space for operation code
    /// `op` (codes 1–9 are taken by the built-in collectives; higher
    /// layers running their own collective protocols — e.g. the
    /// pipelined encrypted bcast — use codes ≥ 32). Every rank must
    /// call this the same number of times in the same order, exactly
    /// like the built-in collectives.
    pub fn reserved_tag(&self, op: u32) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        RESERVED_TAG_BASE | ((op as Tag) << 16) | (seq & 0xffff)
    }

    /// Dissemination barrier (`MPI_Barrier`).
    pub fn barrier(&self) {
        let tag = self.coll_tag(Op::Barrier);
        let _op = self.op("barrier/dissemination");
        let n = self.size();
        let me = self.rank();
        let mut k = 1;
        let mut round = 0;
        while k < n {
            let _r = self.op(round_label(round));
            let dst = (me + k) % n;
            let src = (me + n - k) % n;
            self.sendrecv(&[], dst, tag, Src::Is(src), TagSel::Is(tag));
            k <<= 1;
            round += 1;
        }
    }

    /// Broadcast `buf` from `root` to all ranks (`MPI_Bcast`).
    pub fn bcast(&self, buf: &mut [u8], root: usize) {
        let tag = self.coll_tag(Op::Bcast);
        if self.size() == 1 {
            return;
        }
        if buf.len() <= BCAST_LONG_THRESHOLD {
            let _op = self.op("bcast/binomial");
            self.bcast_binomial(buf, root, tag);
        } else {
            let _op = self.op("bcast/sag");
            self.bcast_scatter_allgather(buf, root, tag);
        }
    }

    fn bcast_binomial(&self, buf: &mut [u8], root: usize, tag: Tag) {
        let (parent, children) = binomial_tree(self.rank(), root, self.size());
        if let Some(src) = parent {
            self.recv_into(buf, Src::Is(src), TagSel::Is(tag));
        }
        for child in children {
            self.send(buf, child, tag);
        }
    }

    fn bcast_scatter_allgather(&self, buf: &mut [u8], root: usize, tag: Tag) {
        let n = self.size();
        let me = self.rank();
        let vrank = (me + n - root) % n;
        let real = |v: usize| (v + root) % n;
        let len = buf.len();
        let chunk = |i: usize| (i * len / n)..((i + 1) * len / n);

        // Phase 1: binomial scatter of chunk ranges (chunk i belongs to
        // virtual rank i).
        {
            let _p = self.op("scatter");
            let mut mask = 1usize;
            let mut my_span = n; // number of chunks this subtree root owns
            while mask < n {
                if vrank & mask != 0 {
                    let src = real(vrank - mask);
                    let hi = (vrank + mask).min(n);
                    let span = chunk(vrank).start..chunk(hi - 1).end;
                    self.recv_into(&mut buf[span], Src::Is(src), TagSel::Is(tag));
                    my_span = mask;
                    break;
                }
                mask <<= 1;
            }
            if vrank == 0 {
                my_span = n;
            }
            // Send upper halves of my span downward.
            let mut m = {
                // largest power of two < my_span bounded by position
                let mut m = 1usize;
                while m < my_span {
                    m <<= 1;
                }
                m >> 1
            };
            while m > 0 {
                if vrank + m < n && m < my_span {
                    let hi = (vrank + 2 * m).min(n);
                    let span = chunk(vrank + m).start..chunk(hi - 1).end;
                    self.send(&buf[span], real(vrank + m), tag);
                }
                m >>= 1;
            }
        }

        // Phase 2: allgather of the n chunks (in vrank space). MPICH
        // uses recursive doubling up to 512 KB on power-of-two comms
        // (log n latencies) and a ring beyond (bandwidth-optimal).
        if n.is_power_of_two() && len < BCAST_RING_THRESHOLD {
            let _p = self.op("allgather-rd");
            // Recursive doubling over contiguous chunk spans: before the
            // step with `mask`, vrank v holds chunks [v & !(mask-1) ..
            // +mask).
            let mut mask = 1usize;
            while mask < n {
                let vpartner = vrank ^ mask;
                let my_base = vrank & !(mask - 1);
                let their_base = vpartner & !(mask - 1);
                let my_span = chunk(my_base).start..chunk(my_base + mask - 1).end;
                let their_span = chunk(their_base).start..chunk(their_base + mask - 1).end;
                let (_, data) = self.sendrecv(
                    &buf[my_span],
                    real(vpartner),
                    tag,
                    Src::Is(real(vpartner)),
                    TagSel::Is(tag),
                );
                buf[their_span].copy_from_slice(&data);
                mask <<= 1;
            }
        } else {
            let _p = self.op("allgather-ring");
            let right = real((vrank + 1) % n);
            let left = real((vrank + n - 1) % n);
            for r in 0..n - 1 {
                let send_idx = (vrank + n - r) % n;
                let recv_idx = (vrank + n - r - 1) % n;
                let (_, data) = self.sendrecv(
                    &buf[chunk(send_idx)],
                    right,
                    tag,
                    Src::Is(left),
                    TagSel::Is(tag),
                );
                let dst = chunk(recv_idx);
                buf[dst].copy_from_slice(&data);
            }
        }
    }

    /// Typed broadcast convenience.
    pub fn bcast_t<T: Pod>(&self, buf: &mut [T], root: usize) {
        let me = self.rank();
        // Required copy: typed↔byte marshalling through the byte-level
        // bcast needs an owned, resizable staging buffer.
        let mut bytes = as_bytes(buf).to_vec();
        self.bcast(&mut bytes, root);
        if me != root {
            copy_from_bytes(buf, &bytes);
        }
    }

    /// Reduce `data` elementwise with commutative `op` onto `root`
    /// (`MPI_Reduce`). Returns `Some(result)` at root, `None` elsewhere.
    pub fn reduce<T: Pod + Default>(
        &self,
        data: &[T],
        root: usize,
        op: impl Fn(&mut T, &T) + Copy,
    ) -> Option<Vec<T>> {
        let tag = self.coll_tag(Op::Reduce);
        let _op = self.op("reduce/binomial");
        let n = self.size();
        let me = self.rank();
        let vrank = (me + n - root) % n;
        let real = |v: usize| (v + root) % n;
        let mut acc = data.to_vec();

        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                self.send_t(&acc, real(vrank - mask), tag);
                return None;
            }
            if vrank + mask < n {
                let (_, other) = self.recv_vec::<T>(Src::Is(real(vrank + mask)), TagSel::Is(tag));
                assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduce with commutative `op` (`MPI_Allreduce`).
    pub fn allreduce<T: Pod + Default>(
        &self,
        data: &[T],
        op: impl Fn(&mut T, &T) + Copy,
    ) -> Vec<T> {
        let n = self.size();
        if n.is_power_of_two() {
            let tag = self.coll_tag(Op::Allreduce);
            let _op = self.op("allreduce/rd");
            let me = self.rank();
            let mut acc = data.to_vec();
            let mut mask = 1usize;
            let mut round = 0;
            while mask < n {
                let _r = self.op(round_label(round));
                let partner = me ^ mask;
                let (_, bytes) = self.sendrecv(
                    as_bytes(&acc),
                    partner,
                    tag,
                    Src::Is(partner),
                    TagSel::Is(tag),
                );
                let other: Vec<T> = vec_from_bytes(&bytes);
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
                mask <<= 1;
                round += 1;
            }
            acc
        } else {
            let _op = self.op("allreduce/reduce+bcast");
            let reduced = self.reduce(data, 0, op);
            let mut out = reduced.unwrap_or_else(|| data.to_vec());
            self.bcast_t(&mut out, 0);
            out
        }
    }

    /// Gather equal-size contributions to `root` (`MPI_Gather`, linear).
    /// Returns the concatenation (rank order) at root, `None` elsewhere.
    pub fn gather(&self, send: &[u8], root: usize) -> Option<Vec<u8>> {
        let tag = self.coll_tag(Op::Gather);
        let _op = self.op("gather/linear");
        let n = self.size();
        let me = self.rank();
        if me == root {
            let mut out = vec![0u8; send.len() * n];
            let chunk = send.len();
            out[root * chunk..(root + 1) * chunk].copy_from_slice(send);
            for _ in 0..n - 1 {
                let (st, data) = self.recv(Src::Any, TagSel::Is(tag));
                out[st.source * chunk..st.source * chunk + data.len()].copy_from_slice(&data);
            }
            Some(out)
        } else {
            self.send(send, root, tag);
            None
        }
    }

    /// Scatter equal-size chunks of `send` (significant at root) to all
    /// ranks (`MPI_Scatter`, linear). `chunk` is the per-rank byte count.
    pub fn scatter(&self, send: Option<&[u8]>, chunk: usize, root: usize) -> Vec<u8> {
        let tag = self.coll_tag(Op::Scatter);
        let _op = self.op("scatter/linear");
        let n = self.size();
        let me = self.rank();
        if me == root {
            let send = send.expect("root must supply the scatter buffer");
            assert_eq!(send.len(), chunk * n, "scatter buffer size mismatch");
            for dst in 0..n {
                if dst != root {
                    self.send(&send[dst * chunk..(dst + 1) * chunk], dst, tag);
                }
            }
            send[root * chunk..(root + 1) * chunk].to_vec()
        } else {
            let (_, data) = self.recv(Src::Is(root), TagSel::Is(tag));
            assert_eq!(data.len(), chunk);
            // Steal the arrived buffer when we are its unique owner;
            // copy only if the transport still shares it.
            data.try_into_vec().unwrap_or_else(|b| b.to_vec())
        }
    }

    /// Allgather equal-size blocks (`MPI_Allgather`): every rank ends
    /// with the rank-ordered concatenation of all contributions.
    pub fn allgather(&self, send: &[u8]) -> Vec<u8> {
        let tag = self.coll_tag(Op::Allgather);
        let n = self.size();
        let me = self.rank();
        let blk = send.len();
        let mut out = vec![0u8; blk * n];
        out[me * blk..(me + 1) * blk].copy_from_slice(send);
        if n == 1 {
            return out;
        }

        if n.is_power_of_two() && blk * n <= ALLGATHER_LONG_THRESHOLD {
            let _op = self.op("allgather/rd");
            // Recursive doubling: before the step with `mask`, this rank
            // holds the aligned group of `mask` blocks containing it.
            let mut mask = 1usize;
            let mut round = 0;
            while mask < n {
                let _r = self.op(round_label(round));
                let partner = me ^ mask;
                let my_base = me & !(mask - 1);
                let their_base = partner & !(mask - 1);
                let (_, data) = self.sendrecv(
                    &out[my_base * blk..(my_base + mask) * blk],
                    partner,
                    tag,
                    Src::Is(partner),
                    TagSel::Is(tag),
                );
                out[their_base * blk..(their_base + mask) * blk].copy_from_slice(&data);
                mask <<= 1;
                round += 1;
            }
        } else {
            let _op = self.op("allgather/ring");
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            for r in 0..n - 1 {
                let _r = self.op(round_label(r));
                let send_idx = (me + n - r) % n;
                let recv_idx = (me + n - r - 1) % n;
                let (_, data) = self.sendrecv(
                    &out[send_idx * blk..(send_idx + 1) * blk],
                    right,
                    tag,
                    Src::Is(left),
                    TagSel::Is(tag),
                );
                out[recv_idx * blk..(recv_idx + 1) * blk].copy_from_slice(&data);
            }
        }
        out
    }

    /// All-to-all personalized exchange of equal-size blocks
    /// (`MPI_Alltoall`): block `i` of `send` goes to rank `i`; block `j`
    /// of the result came from rank `j`.
    pub fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        let tag = self.coll_tag(Op::Alltoall);
        let n = self.size();
        assert_eq!(send.len(), block * n, "alltoall buffer size mismatch");
        if block <= ALLTOALL_BRUCK_THRESHOLD && n > 2 {
            self.alltoall_bruck(send, block, tag)
        } else {
            self.alltoall_pairwise(send, block, tag)
        }
    }

    fn alltoall_pairwise(&self, send: &[u8], block: usize, tag: Tag) -> Vec<u8> {
        let _op = self.op("alltoall/pairwise");
        let n = self.size();
        let me = self.rank();
        let mut out = vec![0u8; block * n];
        out[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
        for i in 1..n {
            let _r = self.op(round_label(i - 1));
            let dst = (me + i) % n;
            let src = (me + n - i) % n;
            let (_, data) = self.sendrecv(
                &send[dst * block..(dst + 1) * block],
                dst,
                tag,
                Src::Is(src),
                TagSel::Is(tag),
            );
            out[src * block..(src + 1) * block].copy_from_slice(&data);
        }
        out
    }

    /// Bruck's algorithm: ⌈log₂ n⌉ rounds of bulk store-and-forward —
    /// each message carries ~half the buffer, so small-block alltoall
    /// costs log n latencies instead of n.
    fn alltoall_bruck(&self, send: &[u8], block: usize, tag: Tag) -> Vec<u8> {
        let _op = self.op("alltoall/bruck");
        let n = self.size();
        let me = self.rank();
        // Phase 0: local rotation so tmp block i is destined to (me+i)%n.
        let mut tmp = vec![0u8; block * n];
        for i in 0..n {
            let src_blk = (me + i) % n;
            tmp[i * block..(i + 1) * block]
                .copy_from_slice(&send[src_blk * block..(src_blk + 1) * block]);
        }
        // Phase 1: log rounds; in round k send every block whose index
        // has bit k set, to rank me+2^k.
        let mut pof2 = 1usize;
        let mut step = 0;
        while pof2 < n {
            let _r = self.op(round_label(step));
            let dst = (me + pof2) % n;
            let src = (me + n - pof2) % n;
            let idxs: Vec<usize> = (0..n).filter(|i| i & pof2 != 0).collect();
            let mut payload = Vec::with_capacity(idxs.len() * block);
            for &i in &idxs {
                payload.extend_from_slice(&tmp[i * block..(i + 1) * block]);
            }
            let (_, data) = self.sendrecv(&payload, dst, tag, Src::Is(src), TagSel::Is(tag));
            assert_eq!(data.len(), payload.len());
            for (slot, &i) in idxs.iter().enumerate() {
                tmp[i * block..(i + 1) * block]
                    .copy_from_slice(&data[slot * block..(slot + 1) * block]);
            }
            pof2 <<= 1;
            step += 1;
        }
        // Phase 2: inverse rotation — after the forwarding rounds, tmp
        // block i holds the data *from* rank (me - i + n) % n.
        let mut out = vec![0u8; block * n];
        for i in 0..n {
            let from = (me + n - i) % n;
            out[from * block..(from + 1) * block].copy_from_slice(&tmp[i * block..(i + 1) * block]);
        }
        out
    }

    /// All-to-all with per-destination counts (`MPI_Alltoallv`), pairwise.
    ///
    /// `send` is the concatenation of per-destination segments of sizes
    /// `send_counts`; `recv_counts[j]` is the expected size from rank
    /// `j`. Returns the rank-ordered concatenation.
    pub fn alltoallv(&self, send: &[u8], send_counts: &[usize], recv_counts: &[usize]) -> Vec<u8> {
        let tag = self.coll_tag(Op::Alltoallv);
        let _op = self.op("alltoallv/pairwise");
        let n = self.size();
        let me = self.rank();
        assert_eq!(send_counts.len(), n);
        assert_eq!(recv_counts.len(), n);
        assert_eq!(send.len(), send_counts.iter().sum::<usize>());

        let sdispl: Vec<usize> = prefix(send_counts);
        let rdispl: Vec<usize> = prefix(recv_counts);
        let mut out = vec![0u8; recv_counts.iter().sum()];
        out[rdispl[me]..rdispl[me] + recv_counts[me]]
            .copy_from_slice(&send[sdispl[me]..sdispl[me] + send_counts[me]]);
        for i in 1..n {
            let dst = (me + i) % n;
            let src = (me + n - i) % n;
            let (_, data) = self.sendrecv(
                &send[sdispl[dst]..sdispl[dst] + send_counts[dst]],
                dst,
                tag,
                Src::Is(src),
                TagSel::Is(tag),
            );
            assert_eq!(data.len(), recv_counts[src], "alltoallv count mismatch");
            out[rdispl[src]..rdispl[src] + recv_counts[src]].copy_from_slice(&data);
        }
        out
    }

    /// Typed allgather of one element per rank.
    pub fn allgather_one<T: Pod + Default>(&self, v: T) -> Vec<T> {
        let bytes = self.allgather(as_bytes(std::slice::from_ref(&v)));
        vec_from_bytes(&bytes)
    }

    /// Gather variable-size contributions to `root` (`MPI_Gatherv`).
    /// Returns per-rank payloads at root, `None` elsewhere.
    pub fn gatherv(&self, send: &[u8], root: usize) -> Option<Vec<Vec<u8>>> {
        let tag = self.coll_tag(Op::Gather);
        let _op = self.op("gatherv/linear");
        let n = self.size();
        let me = self.rank();
        if me == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
            // Required copy: the result owns its payloads and the
            // root's own contribution is a borrowed slice.
            out[root] = send.to_vec();
            for _ in 0..n - 1 {
                let (st, data) = self.recv(Src::Any, TagSel::Is(tag));
                out[st.source] = data.try_into_vec().unwrap_or_else(|b| b.to_vec());
            }
            Some(out)
        } else {
            self.send(send, root, tag);
            None
        }
    }

    /// Scatter variable-size chunks from `root` (`MPI_Scatterv`).
    /// `chunks` is significant only at root.
    pub fn scatterv(&self, chunks: Option<&[Vec<u8>]>, root: usize) -> Vec<u8> {
        let tag = self.coll_tag(Op::Scatter);
        let _op = self.op("scatterv/linear");
        let n = self.size();
        let me = self.rank();
        if me == root {
            let chunks = chunks.expect("root must supply the scatterv chunks");
            assert_eq!(chunks.len(), n, "one chunk per rank");
            for (dst, chunk) in chunks.iter().enumerate() {
                if dst != root {
                    self.send(chunk, dst, tag);
                }
            }
            // Required copy: the root's own chunk is borrowed from the
            // caller while the result must be owned.
            chunks[root].clone()
        } else {
            self.recv(Src::Is(root), TagSel::Is(tag))
                .1
                .try_into_vec()
                .unwrap_or_else(|b| b.to_vec())
        }
    }

    /// Reduce + scatter of the result in equal blocks
    /// (`MPI_Reduce_scatter_block`): every rank contributes a vector of
    /// `n × block_elems` elements and receives its reduced block.
    pub fn reduce_scatter_block<T: Pod + Default>(
        &self,
        data: &[T],
        op: impl Fn(&mut T, &T) + Copy,
    ) -> Vec<T> {
        let _op = self.op("reduce_scatter/reduce+scatterv");
        let n = self.size();
        let me = self.rank();
        assert_eq!(data.len() % n, 0, "data must split evenly over ranks");
        let block = data.len() / n;
        // Reduce to rank 0, then scatter blocks — the simple composition
        // (MPICH uses recursive halving; timing shape is comparable at
        // our scales and the result is identical).
        let reduced = self.reduce(data, 0, op);
        let chunks: Option<Vec<Vec<u8>>> = reduced.map(|r| {
            (0..n)
                .map(|i| as_bytes(&r[i * block..(i + 1) * block]).to_vec())
                .collect()
        });
        let mine = self.scatterv(chunks.as_deref(), 0);
        let _ = me;
        vec_from_bytes(&mine)
    }
}

fn prefix(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        out.push(acc);
        acc += c;
    }
    out
}

/// Elementwise reduction operators for the typed collectives.
pub mod ops {
    /// Sum.
    pub fn sum<T: std::ops::AddAssign + Copy>(a: &mut T, b: &T) {
        *a += *b;
    }
    /// Maximum.
    pub fn max<T: PartialOrd + Copy>(a: &mut T, b: &T) {
        if *b > *a {
            *a = *b;
        }
    }
    /// Minimum.
    pub fn min<T: PartialOrd + Copy>(a: &mut T, b: &T) {
        if *b < *a {
            *a = *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ops;
    use crate::world::World;
    use empi_netsim::NetModel;

    fn worlds() -> Vec<World> {
        vec![
            World::flat(NetModel::instant(), 1),
            World::flat(NetModel::instant(), 2),
            World::flat(NetModel::instant(), 4),
            World::flat(NetModel::instant(), 5),
            World::flat(NetModel::instant(), 8),
            World::flat(NetModel::instant(), 13),
        ]
    }

    #[test]
    fn binomial_tree_spans_every_rank_once() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, n / 2, n - 1] {
                let mut parent_of = vec![None; n];
                for rank in 0..n {
                    let (parent, children) = super::binomial_tree(rank, root, n);
                    assert_eq!(parent.is_none(), rank == root, "n {n} root {root}");
                    for child in children {
                        assert_eq!(parent_of[child].replace(rank), None, "two parents");
                    }
                }
                for (rank, listed) in parent_of.iter().enumerate() {
                    let (parent, _) = super::binomial_tree(rank, root, n);
                    assert_eq!(*listed, parent, "n {n} root {root} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn barrier_completes() {
        for w in worlds() {
            w.run(|c| {
                c.barrier();
                c.barrier();
            });
        }
    }

    #[test]
    fn bcast_small_all_roots() {
        for w in worlds() {
            let n = w.n_ranks();
            for root in [0, n - 1, n / 2] {
                let out = w.run(|c| {
                    let mut buf = if c.rank() == root {
                        vec![0xCDu8; 100]
                    } else {
                        vec![0u8; 100]
                    };
                    c.bcast(&mut buf, root);
                    buf
                });
                for (r, b) in out.results.iter().enumerate() {
                    assert!(b.iter().all(|&x| x == 0xCD), "rank {r} root {root}");
                }
            }
        }
    }

    #[test]
    fn bcast_long_scatter_allgather() {
        for w in worlds() {
            let n = w.n_ranks();
            let len = super::BCAST_LONG_THRESHOLD * 3 + 17;
            let root = n.saturating_sub(2).min(n - 1);
            let out = w.run(|c| {
                let mut buf = vec![0u8; len];
                if c.rank() == root {
                    for (i, b) in buf.iter_mut().enumerate() {
                        *b = (i % 251) as u8;
                    }
                }
                c.bcast(&mut buf, root);
                buf
            });
            for (r, b) in out.results.iter().enumerate() {
                for (i, &x) in b.iter().enumerate() {
                    assert_eq!(x as usize, i % 251, "rank {r} byte {i} (n={n})");
                }
            }
        }
    }

    #[test]
    fn reduce_sum() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                let data = vec![c.rank() as i64, 1];
                c.reduce(&data, 0, ops::sum)
            });
            let expect: i64 = (0..n as i64).sum();
            assert_eq!(out.results[0], Some(vec![expect, n as i64]));
            for r in 1..n {
                assert_eq!(out.results[r], None);
            }
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                let s = c.allreduce(&[c.rank() as f64], ops::sum);
                let m = c.allreduce(&[c.rank() as i32 * 3], ops::max);
                (s[0], m[0])
            });
            let sum: f64 = (0..n).map(|r| r as f64).sum();
            for r in 0..n {
                assert_eq!(out.results[r], (sum, (n as i32 - 1) * 3));
            }
        }
    }

    #[test]
    fn gather_and_scatter() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                let g = c.gather(&[c.rank() as u8; 3], 0);
                if c.rank() == 0 {
                    let g = g.unwrap();
                    let expect: Vec<u8> = (0..n).flat_map(|r| [r as u8; 3]).collect();
                    assert_eq!(g, expect);
                }
                let root_buf: Vec<u8> = (0..n).flat_map(|r| [r as u8; 2]).collect();
                c.scatter(
                    if c.rank() == 0 {
                        Some(&root_buf[..])
                    } else {
                        None
                    },
                    2,
                    0,
                )
            });
            for (r, v) in out.results.iter().enumerate() {
                assert_eq!(v, &vec![r as u8; 2]);
            }
        }
    }

    #[test]
    fn allgather_all_sizes() {
        for w in worlds() {
            let n = w.n_ranks();
            for blk in [1usize, 8, 1000, 9000] {
                let out = w.run(|c| c.allgather(&vec![c.rank() as u8; blk]));
                for v in &out.results {
                    assert_eq!(v.len(), blk * n);
                    for r in 0..n {
                        assert!(v[r * blk..(r + 1) * blk].iter().all(|&x| x == r as u8));
                    }
                }
            }
        }
    }

    #[test]
    fn alltoall_bruck_matches_pairwise_semantics() {
        for w in worlds() {
            let n = w.n_ranks();
            // Small block -> Bruck; payload encodes (sender, receiver).
            for blk in [1usize, 4, 300 /* pairwise */] {
                let out = w.run(|c| {
                    let me = c.rank() as u8;
                    let send: Vec<u8> = (0..n)
                        .flat_map(|dst| {
                            let mut b = vec![0u8; blk];
                            b[0] = me;
                            if blk > 1 {
                                b[1] = dst as u8;
                            }
                            b
                        })
                        .collect();
                    c.alltoall(&send, blk)
                });
                for (me, v) in out.results.iter().enumerate() {
                    for src in 0..n {
                        assert_eq!(
                            v[src * blk] as usize,
                            src,
                            "rank {me} block {src} blk {blk} n {n}"
                        );
                        if blk > 1 {
                            assert_eq!(v[src * blk + 1] as usize, me);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alltoallv_ragged() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                let me = c.rank();
                // Rank r sends (r + dst + 1) bytes of value r to dst.
                let send_counts: Vec<usize> = (0..n).map(|dst| me + dst + 1).collect();
                let recv_counts: Vec<usize> = (0..n).map(|src| src + me + 1).collect();
                let send: Vec<u8> = send_counts
                    .iter()
                    .flat_map(|&c_| vec![me as u8; c_])
                    .collect();
                let out = c.alltoallv(&send, &send_counts, &recv_counts);
                (out, recv_counts)
            });
            for (me, (v, rc)) in out.results.iter().enumerate() {
                let mut off = 0;
                for src in 0..n {
                    assert!(
                        v[off..off + rc[src]].iter().all(|&x| x == src as u8),
                        "rank {me} from {src}"
                    );
                    off += rc[src];
                }
            }
        }
    }

    #[test]
    fn gatherv_scatterv_ragged() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                let me = c.rank();
                let mine = vec![me as u8; me + 1];
                let g = c.gatherv(&mine, 0);
                if me == 0 {
                    let g = g.unwrap();
                    for (r, v) in g.iter().enumerate() {
                        assert_eq!(v, &vec![r as u8; r + 1]);
                    }
                }
                let chunks: Option<Vec<Vec<u8>>> =
                    (me == 0).then(|| (0..n).map(|r| vec![(r * 2) as u8; r + 2]).collect());
                c.scatterv(chunks.as_deref(), 0)
            });
            for (r, v) in out.results.iter().enumerate() {
                assert_eq!(v, &vec![(r * 2) as u8; r + 2]);
            }
        }
    }

    #[test]
    fn reduce_scatter_block_sums() {
        for w in worlds() {
            let n = w.n_ranks();
            let out = w.run(|c| {
                // data[i] = rank + i; reduced block b = Σ_ranks (r + b·2+k)
                let data: Vec<i64> = (0..n * 2).map(|i| (c.rank() + i) as i64).collect();
                c.reduce_scatter_block(&data, crate::coll::ops::sum)
            });
            let rank_sum: i64 = (0..n as i64).sum();
            for (b, v) in out.results.iter().enumerate() {
                assert_eq!(v.len(), 2);
                for (k, &x) in v.iter().enumerate() {
                    let expect = rank_sum + (n * (b * 2 + k)) as i64;
                    assert_eq!(x, expect, "block {b} elem {k} (n={n})");
                }
            }
        }
    }

    #[test]
    fn waitany_returns_first_completion() {
        use empi_netsim::VDur;
        let w = World::flat(NetModel::ethernet_10g(), 3);
        let out = w.run(|c| {
            if c.rank() == 0 {
                // Rank 2 sends late, rank 1 sends early.
                let mut reqs = vec![
                    c.irecv(crate::Src::Is(2), crate::TagSel::Is(0)),
                    c.irecv(crate::Src::Is(1), crate::TagSel::Is(0)),
                ];
                let (idx, st, data) = c.waitany(&mut reqs);
                assert_eq!(idx, 1, "the early sender completes first");
                assert_eq!(st.source, 1);
                assert_eq!(data.unwrap()[0], 11);
                let (idx2, st2, _) = c.waitany(&mut reqs);
                assert_eq!((idx2, st2.source), (0, 2));
                true
            } else if c.rank() == 1 {
                c.send(&[11], 0, 0);
                true
            } else {
                c.compute(VDur::from_micros(5_000));
                c.send(&[22], 0, 0);
                true
            }
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn probe_and_iprobe() {
        use empi_netsim::VDur;
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(|c| {
            if c.rank() == 0 {
                c.compute(VDur::from_micros(100));
                c.send(&[1, 2, 3], 1, 9);
            } else {
                // Nothing arrived yet at t=0.
                assert!(c.iprobe(crate::Src::Any, crate::TagSel::Any).is_none());
                // Blocking probe sees the message without consuming it.
                let st = c.probe(crate::Src::Any, crate::TagSel::Is(9));
                assert_eq!((st.source, st.tag, st.len), (0, 9, 3));
                // Now iprobe also sees it, and recv still gets the data.
                assert!(c.iprobe(crate::Src::Is(0), crate::TagSel::Is(9)).is_some());
                let (_, data) = c.recv(crate::Src::Is(0), crate::TagSel::Is(9));
                assert_eq!(&data[..], &[1, 2, 3]);
                assert!(c.iprobe(crate::Src::Any, crate::TagSel::Any).is_none());
            }
        });
    }

    #[test]
    fn ctrl_aware_primitives_wake_on_control_frames() {
        use crate::ctrl::NACK_TAG;
        use empi_netsim::VDur;
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(|c| {
            if c.rank() == 1 {
                // A control frame goes out early, the data message late.
                c.send(b"nack!", 0, NACK_TAG);
                c.compute(VDur::from_micros(500));
                c.send(b"data", 0, 5);
            } else {
                // The wait wakes on the control frame first...
                let sel = (crate::Src::Is(1), crate::TagSel::Is(5));
                let ctrl = (crate::Src::Any, crate::TagSel::Is(NACK_TAG));
                let (is_ctrl, st) = c.probe_either(sel, ctrl);
                assert!(is_ctrl);
                assert_eq!(st.tag, NACK_TAG);
                let _ = c.recv(crate::Src::Is(st.source), crate::TagSel::Is(NACK_TAG));
                // ...and on the data message once the ctrl queue drains.
                let (is_ctrl, st) = c.probe_either(sel, ctrl);
                assert!(!is_ctrl);
                assert_eq!((st.source, st.tag, st.len), (1, 5, 4));
                let _ = c.recv(crate::Src::Is(1), crate::TagSel::Is(5));
            }
        });
    }

    #[test]
    fn poll_set_hands_the_request_back_on_ctrl() {
        use crate::comm::SetPoll;
        use crate::ctrl::NACK_TAG;
        use empi_netsim::VDur;
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 1 {
                c.send(b"ctrl", 0, NACK_TAG);
                c.compute(VDur::from_micros(300));
                c.send(b"payload", 0, 7);
                0
            } else {
                let mut slots = [Some(c.irecv(crate::Src::Is(1), crate::TagSel::Is(7)))];
                let ctrl = Some((crate::Src::Any, crate::TagSel::Is(NACK_TAG)));
                let mut ctrl_seen = 0;
                loop {
                    match c.poll_set(&mut slots, ctrl, true) {
                        SetPoll::Ctrl => {
                            assert!(slots[0].is_some(), "ctrl leaves the request untouched");
                            let _ = c.recv(crate::Src::Any, crate::TagSel::Is(NACK_TAG));
                            ctrl_seen += 1;
                        }
                        SetPoll::Done(0, st, payload) => {
                            assert_eq!(st.source, 1);
                            match payload {
                                Some(crate::chunk::RecvPayload::Plain(_, d)) => {
                                    assert_eq!(&d[..], b"payload")
                                }
                                _ => panic!("expected a plain payload"),
                            }
                            break;
                        }
                        other => panic!("blocking poll on one live request: {other:?}"),
                    }
                }
                ctrl_seen
            }
        });
        assert_eq!(
            out.results[0], 1,
            "the ctrl frame must interrupt the wait once"
        );
    }

    #[test]
    fn wildcard_matching_skips_ctrl_tags_and_probe_sees_chunked() {
        use crate::chunk::{ChunkFrame, SendPayload};
        use crate::comm::Charge;
        use crate::ctrl::NACK_TAG;
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(|c| {
            if c.rank() == 0 {
                c.send(b"ctrl", 1, NACK_TAG);
                let frames = vec![ChunkFrame {
                    data: bytes::Bytes::copy_from_slice(b"frame0"),
                    ready: c.now(),
                }];
                let chunked = |frames| c.post(SendPayload::Chunked(frames), 1, 6, Charge::Blocking);
                c.wait_sent(chunked(frames));
                let train = [&b"fr"[..], b"am", b"e1"].map(|f| ChunkFrame {
                    data: bytes::Bytes::copy_from_slice(f),
                    ready: c.now(),
                });
                c.wait_sent(chunked(train.to_vec()));
            } else {
                // The wildcard probe must skip the ctrl frame and find
                // the chunked send (now visible to peeks).
                let st = c.probe(crate::Src::Any, crate::TagSel::Any);
                assert_eq!((st.source, st.tag, st.len), (0, 6, 6));
                match c.recv_maybe_chunked(crate::Src::Is(0), crate::TagSel::Is(6)) {
                    crate::chunk::RecvPayload::Chunked(msg) => assert_eq!(msg.wire_bytes(), 6),
                    _ => panic!("expected a chunked payload"),
                }
                // Plain `recv` matches a chunked train too and hands
                // back the assembled bytes.
                let (st, d) = c.recv(crate::Src::Is(0), crate::TagSel::Is(6));
                assert_eq!((st.source, st.tag, st.len), (0, 6, 6));
                assert_eq!(&d[..], b"frame1");
                let (st, d) = c.recv(crate::Src::Any, crate::TagSel::Is(NACK_TAG));
                assert_eq!(st.source, 0);
                assert_eq!(&d[..], b"ctrl");
            }
        });
    }

    #[test]
    fn allgather_one_typed() {
        let w = World::flat(NetModel::instant(), 6);
        let out = w.run(|c| c.allgather_one(c.rank() as u64 * 7));
        for v in out.results {
            assert_eq!(v, (0..6).map(|r| r * 7).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn collectives_on_real_fabric_terminate() {
        // Smoke test with actual timing models and multi-rank nodes.
        for model in [NetModel::ethernet_10g(), NetModel::infiniband_40g()] {
            let w = World::new(model, empi_netsim::Topology::block(16, 4));
            let out = w.run(|c| {
                let mut buf = vec![c.rank() as u8; 4096];
                c.bcast(&mut buf, 0);
                let s = c.allreduce(&[1u64], ops::sum);
                let a = c.alltoall(&vec![0u8; 16 * 64], 64);
                c.barrier();
                (buf[0], s[0], a.len())
            });
            for r in out.results {
                assert_eq!(r, (0, 16, 16 * 64));
            }
            assert!(out.end_time.as_nanos() > 0);
        }
    }
}
