//! Collective operations, with the classic algorithm selections used by
//! MPICH/MVAPICH (the paper's substrates):
//!
//! * `barrier` — dissemination.
//! * `bcast` — binomial tree for short messages, van-de-Geijn
//!   scatter + ring-allgather for long ones.
//! * `allreduce` — recursive doubling (power-of-two), otherwise a
//!   binomial-tree reduce to rank 0 + bcast (commutative operators).
//! * `allgather` — recursive doubling (power-of-two), otherwise ring;
//!   ring for long messages.
//! * `alltoall` — Bruck for short messages (log n rounds — this is why
//!   the paper's 64-rank 1-byte alltoall costs ~10 one-way latencies,
//!   not 63), pairwise exchange for long ones.
//! * `alltoallv` — pairwise exchange.
//!
//! The schedules are data: [`dissemination`], [`recursive_doubling`],
//! [`ring`] and [`pairwise`] yield one [`Round`] per step (who to send
//! which blocks to, who to receive which blocks from), [`binomial_tree`]
//! yields a rank's tree edges with the block span each carries, and
//! [`exchange`] is the one loop that moves a round's bytes. The verbs
//! here and the encrypted layer's pipelined collectives walk the same
//! generators with their own hop.
//!
//! Every rank must call each collective in the same order (as in MPI);
//! an internal per-communicator sequence number keeps successive
//! collectives from cross-matching.

use std::convert::Infallible;
use std::ops::Range;

use crate::comm::Comm;
use crate::types::{
    as_bytes, copy_from_bytes, vec_from_bytes, Pod, Src, Tag, TagSel, RESERVED_TAG_BASE,
};

/// Message-size switch: binomial vs scatter-allgather broadcast.
const BCAST_LONG_THRESHOLD: usize = 12 << 10;
/// Within the scatter-allgather broadcast: recursive-doubling allgather
/// below this size, ring at or above (MPICH's 512 KB switch).
const BCAST_RING_THRESHOLD: usize = 512 << 10;
/// Message-size switch: Bruck vs pairwise alltoall (per-block bytes).
const ALLTOALL_BRUCK_THRESHOLD: usize = 256;
/// Message-size switch: recursive-doubling vs ring allgather (MPICH
/// uses recursive doubling up to 512 KB total for power-of-two comms).
const ALLGATHER_LONG_THRESHOLD: usize = 512 << 10;

/// Static per-round labels for the tracer's phase stack (labels must be
/// `&'static str`; rounds beyond the table share the last label).
const ROUND_LABELS: [&str; 16] = [
    "round0", "round1", "round2", "round3", "round4", "round5", "round6", "round7", "round8",
    "round9", "round10", "round11", "round12", "round13", "round14", "round15+",
];

fn round_label(k: usize) -> &'static str {
    ROUND_LABELS[k.min(ROUND_LABELS.len() - 1)]
}

/// One step of a block-exchange schedule as one rank sees it: blocks
/// `send` go to `to` while blocks `recv` arrive from `from`. Round `k`
/// of rank `r` sends to `s` exactly when round `k` of `s` receives from
/// `r`, so a schedule walked in order by every rank cannot deadlock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    pub to: usize,
    pub from: usize,
    pub send: Range<usize>,
    pub recv: Range<usize>,
}

impl Round {
    /// The round that reaches `d` ranks ahead on the ring of `n`: `send`
    /// goes there while `recv` arrives from the rank `d` behind.
    fn shift(rank: usize, n: usize, d: usize, send: Range<usize>, recv: Range<usize>) -> Round {
        Round {
            to: (rank + d) % n,
            from: (rank + n - d) % n,
            send,
            recv,
        }
    }

    /// The round of a schedule generated for root-relative ranks, with
    /// its peers translated back to real ones (`v → (v + root) % n`);
    /// block indices stay root-relative.
    pub fn rooted(self, root: usize, n: usize) -> Round {
        Round {
            to: (self.to + root) % n,
            from: (self.from + root) % n,
            ..self
        }
    }
}

/// 1, 2, 4, … below `n`: one per round of the logarithmic schedules.
fn powers_below(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |m| Some(m << 1)).take_while(move |&m| m < n)
}

/// Dissemination: ⌈log₂ n⌉ rounds, round `k` reaching `2^k` ahead. The
/// rounds carry no block span — the barrier moves nothing and Bruck
/// picks its blocks by index bit `k`.
fn dissemination(rank: usize, n: usize) -> impl Iterator<Item = Round> {
    powers_below(n).map(move |d| Round::shift(rank, n, d, 0..0, 0..0))
}

/// Recursive doubling over a power-of-two `n`: before the round with
/// `mask`, a rank holds the aligned group of `mask` blocks containing
/// its own and swaps it for its partner's.
fn recursive_doubling(rank: usize, n: usize) -> impl Iterator<Item = Round> {
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    powers_below(n).map(move |mask| {
        let partner = rank ^ mask;
        let (mine, theirs) = (rank & !(mask - 1), partner & !(mask - 1));
        Round {
            to: partner,
            from: partner,
            send: mine..mine + mask,
            recv: theirs..theirs + mask,
        }
    })
}

/// Ring allgather: `n − 1` rounds to the right-hand neighbour, round
/// `s` passing on the block that started `s` ranks behind (received the
/// round before; first the rank's own).
pub fn ring(rank: usize, n: usize) -> impl Iterator<Item = Round> {
    (0..n - 1).map(move |s| {
        let (held, next) = ((rank + n - s) % n, (rank + n - s - 1) % n);
        Round::shift(rank, n, 1, held..held + 1, next..next + 1)
    })
}

/// Pairwise exchange: in round `i − 1` a rank sends the block addressed
/// to the rank `i` ahead and receives the one the rank `i` behind
/// addressed to it, so every peer is met exactly once.
pub fn pairwise(rank: usize, n: usize) -> impl Iterator<Item = Round> {
    (1..n).map(move |i| {
        let r = Round::shift(rank, n, i, 0..0, 0..0);
        Round {
            send: r.to..r.to + 1,
            recv: r.from..r.from + 1,
            ..r
        }
    })
}

/// Binomial tree of a broadcast rooted at `root` over `n` ranks, as
/// `rank` sees it: the parent to receive from (`None` at the root), the
/// root-relative blocks of the subtree `rank` heads (what a scatter
/// delivers to it), and the children to forward to with the subtree
/// each heads, in send order (largest first). The children's subtrees
/// partition the rank's own minus its own block.
pub fn binomial_tree(
    rank: usize,
    root: usize,
    n: usize,
) -> (
    Option<usize>,
    Range<usize>,
    impl Iterator<Item = (usize, Range<usize>)>,
) {
    let vrank = (rank + n - root) % n;
    let real = move |v: usize| (v + root) % n;
    // The subtree headed by virtual rank `v`, reached over an edge of
    // weight `m`, is `v..v + m` clipped to the communicator.
    let subtree = move |v: usize, m: usize| v..(v + m).min(n);
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
        .map(move |m| (real(vrank + m), subtree(vrank + m, m)));
    (parent, subtree(vrank, mask), children)
}

/// Block edges of a buffer of consecutive `counts`: block `b` spans
/// bytes `edges[b]..edges[b + 1]`.
pub fn edges(counts: &[usize]) -> Vec<usize> {
    let mut out = vec![0; counts.len() + 1];
    for (i, &c) in counts.iter().enumerate() {
        out[i + 1] = out[i] + c;
    }
    out
}

/// The byte range of a run of blocks.
fn span(edge: &[usize], blocks: &Range<usize>) -> Range<usize> {
    edge[blocks.start]..edge[blocks.end]
}

/// Walk a schedule — the only place a round's bytes are sliced, handed
/// to the hop and copied back. Each round's outgoing blocks are read
/// from `send` (buffer, block edges), or with `None` from `out` itself:
/// allgather shapes forward what earlier rounds delivered. `hop(k,
/// round, bytes)` puts them on the wire and returns what arrived, which
/// must fill the round's incoming blocks of `out` exactly.
pub fn exchange<D: AsRef<[u8]>, E>(
    rounds: impl Iterator<Item = Round>,
    send: Option<(&[u8], &[usize])>,
    (out, out_edge): (&mut [u8], &[usize]),
    mut hop: impl FnMut(usize, &Round, &[u8]) -> Result<D, E>,
) -> Result<(), E> {
    for (k, r) in rounds.enumerate() {
        let (buf, edge) = send.unwrap_or((out, out_edge));
        let got = hop(k, &r, &buf[span(edge, &r.send)])?;
        let dst = &mut out[span(out_edge, &r.recv)];
        assert_eq!(got.as_ref().len(), dst.len(), "exchange count mismatch");
        dst.copy_from_slice(got.as_ref());
    }
    Ok(())
}

/// Broadcast algorithm by message length, for both layers: a binomial
/// tree is latency-optimal for short messages, scatter + allgather
/// bandwidth-optimal for long ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlg {
    Binomial,
    ScatterAllgather,
}

/// The broadcast algorithm switch, written once.
pub fn bcast_alg(len: usize) -> BcastAlg {
    if len <= BCAST_LONG_THRESHOLD {
        BcastAlg::Binomial
    } else {
        BcastAlg::ScatterAllgather
    }
}

/// Operation codes of the built-in collectives' reserved tags. The
/// discriminants are explicit so that retiring a code moves no other
/// operation's tags; 5 and 6 are free.
#[derive(Clone, Copy)]
enum Op {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Allreduce = 4,
    Allgather = 7,
    Alltoall = 8,
    Alltoallv = 9,
}

impl<'h> Comm<'h> {
    fn coll_tag(&self, op: Op) -> Tag {
        self.reserved_tag(op as u32)
    }

    /// Mint a tag in the reserved collective space for operation code
    /// `op` (codes 1–9 are reserved for the built-in collectives; higher
    /// layers running their own collective protocols — e.g. the
    /// pipelined encrypted bcast — use codes ≥ 32). Every rank must
    /// call this the same number of times in the same order, exactly
    /// like the built-in collectives.
    pub fn reserved_tag(&self, op: u32) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        RESERVED_TAG_BASE | ((op as Tag) << 16) | (seq & 0xffff)
    }

    /// [`exchange`] with the transport's hop: one `sendrecv` with the
    /// round's peers, under the `round<k>` label where `labelled`.
    fn exchange(
        &self,
        rounds: impl Iterator<Item = Round>,
        send: Option<(&[u8], &[usize])>,
        out: (&mut [u8], &[usize]),
        tag: Tag,
        labelled: bool,
    ) {
        let Ok(()) = exchange(rounds, send, out, |k, r, bytes| {
            let _r = labelled.then(|| self.op(round_label(k)));
            let (_, data) = self.sendrecv(bytes, r.to, tag, Src::Is(r.from), TagSel::Is(tag));
            Ok::<_, Infallible>(data)
        });
    }

    /// Dissemination barrier (`MPI_Barrier`).
    pub fn barrier(&self) {
        let tag = self.coll_tag(Op::Barrier);
        let _op = self.op("barrier/dissemination");
        // The dissemination schedule with nothing in its blocks.
        let rounds = dissemination(self.rank(), self.size());
        self.exchange(rounds, None, (&mut [], &[0]), tag, true);
    }

    /// Broadcast `buf` from `root` to all ranks (`MPI_Bcast`).
    pub fn bcast(&self, buf: &mut [u8], root: usize) {
        let tag = self.coll_tag(Op::Bcast);
        match bcast_alg(buf.len()) {
            BcastAlg::Binomial => {
                let _op = self.op("bcast/binomial");
                self.tree_down(buf, root, tag, None);
            }
            BcastAlg::ScatterAllgather => self.bcast_scatter_allgather(buf, root, tag),
        }
    }

    /// Walk the binomial tree downward: receive this rank's part of
    /// `buf` from the parent, forward each child its part. With block
    /// edges a part is the chunks of the subtree below the tree edge (a
    /// scatter); with `None` it is all of `buf` (the plain broadcast).
    fn tree_down(&self, buf: &mut [u8], root: usize, tag: Tag, edge: Option<&[usize]>) {
        let len = buf.len();
        let part = |subtree: Range<usize>| edge.map_or(0..len, |e| span(e, &subtree));
        let (parent, subtree, children) = binomial_tree(self.rank(), root, self.size());
        if let Some(src) = parent {
            self.recv_into(&mut buf[part(subtree)], Src::Is(src), TagSel::Is(tag));
        }
        for (child, subtree) in children {
            self.send(&buf[part(subtree)], child, tag);
        }
    }

    fn bcast_scatter_allgather(&self, buf: &mut [u8], root: usize, tag: Tag) {
        let _op = self.op("bcast/sag");
        let n = self.size();
        let len = buf.len();
        // Chunk `i` belongs to virtual rank `i`.
        let edge: Vec<usize> = (0..=n).map(|i| i * len / n).collect();
        {
            let _p = self.op("scatter");
            self.tree_down(buf, root, tag, Some(&edge));
        }
        // Allgather of the n chunks (in vrank space). MPICH uses
        // recursive doubling up to 512 KB on power-of-two comms (log n
        // latencies) and a ring beyond (bandwidth-optimal).
        let rd = n.is_power_of_two() && len < BCAST_RING_THRESHOLD;
        let _p = self.op(if rd { "allgather-rd" } else { "allgather-ring" });
        let vrank = (self.rank() + n - root) % n;
        let rounds = allgather_rounds(vrank, n, rd).map(|r| r.rooted(root, n));
        self.exchange(rounds, None, (buf, &edge), tag, false);
    }

    /// Typed broadcast convenience.
    fn bcast_t<T: Pod>(&self, buf: &mut [T], root: usize) {
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
    /// (`MPI_Reduce`) up the binomial tree: the children's partial
    /// results arrive in reverse send order (smallest subtree first),
    /// then the accumulation goes to the parent. Returns `Some(result)`
    /// at root, `None` elsewhere.
    fn reduce<T: Pod + Default>(
        &self,
        data: &[T],
        root: usize,
        op: impl Fn(&mut T, &T) + Copy,
    ) -> Option<Vec<T>> {
        let tag = self.coll_tag(Op::Reduce);
        let _op = self.op("reduce/binomial");
        let (parent, _, children) = binomial_tree(self.rank(), root, self.size());
        let children: Vec<usize> = children.map(|(child, _)| child).collect();
        let mut acc = data.to_vec();
        for &child in children.iter().rev() {
            let (_, other) = self.recv_vec::<T>(Src::Is(child), TagSel::Is(tag));
            assert_eq!(other.len(), acc.len(), "reduce length mismatch");
            for (a, b) in acc.iter_mut().zip(other.iter()) {
                op(a, b);
            }
        }
        match parent {
            Some(parent) => {
                self.send_t(&acc, parent, tag);
                None
            }
            None => Some(acc),
        }
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
            let mut acc = data.to_vec();
            for (k, r) in recursive_doubling(self.rank(), n).enumerate() {
                let _r = self.op(round_label(k));
                let (_, bytes) =
                    self.sendrecv(as_bytes(&acc), r.to, tag, Src::Is(r.from), TagSel::Is(tag));
                let other: Vec<T> = vec_from_bytes(&bytes);
                assert_eq!(other.len(), acc.len(), "allreduce length mismatch");
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
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

    /// Allgather equal-size blocks (`MPI_Allgather`): every rank ends
    /// with the rank-ordered concatenation of all contributions.
    pub fn allgather(&self, send: &[u8]) -> Vec<u8> {
        let tag = self.coll_tag(Op::Allgather);
        let n = self.size();
        let me = self.rank();
        let edge = edges(&vec![send.len(); n]);
        let mut out = vec![0u8; edge[n]];
        out[edge[me]..edge[me + 1]].copy_from_slice(send);
        let rd = n.is_power_of_two() && edge[n] <= ALLGATHER_LONG_THRESHOLD;
        let _op = self.op(if rd { "allgather/rd" } else { "allgather/ring" });
        self.exchange(
            allgather_rounds(me, n, rd),
            None,
            (&mut out, &edge),
            tag,
            true,
        );
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
            let _op = self.op("alltoall/pairwise");
            let edge = edges(&vec![block; n]);
            self.alltoall_pairwise(send, &edge, &edge, tag, true)
        }
    }

    /// Pairwise-exchange body of `alltoall` and `alltoallv`: the own
    /// block is copied, every other one moves in its peer's round.
    fn alltoall_pairwise(
        &self,
        send: &[u8],
        send_edge: &[usize],
        recv_edge: &[usize],
        tag: Tag,
        labelled: bool,
    ) -> Vec<u8> {
        let n = self.size();
        let me = self.rank();
        let mut out = vec![0u8; recv_edge[n]];
        out[recv_edge[me]..recv_edge[me + 1]]
            .copy_from_slice(&send[send_edge[me]..send_edge[me + 1]]);
        let send = Some((send, send_edge));
        self.exchange(pairwise(me, n), send, (&mut out, recv_edge), tag, labelled);
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
        let mut tmp = send.to_vec();
        tmp.rotate_left(me * block);
        // Phase 1: log rounds; in round k send every block whose index
        // has bit k set, to rank me+2^k.
        for (k, r) in dissemination(me, n).enumerate() {
            let idxs: Vec<usize> = (0..n).filter(|i| i & (1 << k) != 0).collect();
            let mut payload = Vec::with_capacity(idxs.len() * block);
            for &i in &idxs {
                payload.extend_from_slice(&tmp[i * block..(i + 1) * block]);
            }
            let _r = self.op(round_label(k));
            let (_, data) = self.sendrecv(&payload, r.to, tag, Src::Is(r.from), TagSel::Is(tag));
            assert_eq!(data.len(), payload.len());
            for (slot, &i) in idxs.iter().enumerate() {
                tmp[i * block..(i + 1) * block]
                    .copy_from_slice(&data[slot * block..(slot + 1) * block]);
            }
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
        assert_eq!(send_counts.len(), n);
        assert_eq!(recv_counts.len(), n);
        assert_eq!(send.len(), send_counts.iter().sum::<usize>());
        self.alltoall_pairwise(send, &edges(send_counts), &edges(recv_counts), tag, false)
    }
}

/// The allgather schedule once its switch is decided: recursive
/// doubling (log n rounds) or the ring (bandwidth-optimal).
fn allgather_rounds(rank: usize, n: usize, rd: bool) -> Box<dyn Iterator<Item = Round>> {
    if rd {
        Box::new(recursive_doubling(rank, n))
    } else {
        Box::new(ring(rank, n))
    }
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
    use super::{ops, Round};
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
                    let (parent, subtree, children) = super::binomial_tree(rank, root, n);
                    assert_eq!(parent.is_none(), rank == root, "n {n} root {root}");
                    // The children's subtrees partition this rank's own
                    // minus its own block, largest first.
                    let mut end = subtree.end;
                    for (child, below) in children {
                        assert_eq!(parent_of[child].replace(rank), None, "two parents");
                        assert_eq!((child + n - root) % n, below.start, "child heads its span");
                        assert_eq!(below.end, end, "n {n} root {root} rank {rank}");
                        end = below.start;
                    }
                    assert_eq!(subtree.start + 1, end, "n {n} root {root} rank {rank}");
                    assert_eq!(subtree.start, (rank + n - root) % n);
                    if rank == root {
                        assert_eq!(subtree, 0..n);
                    }
                }
                for (rank, listed) in parent_of.iter().enumerate() {
                    let (parent, ..) = super::binomial_tree(rank, root, n);
                    assert_eq!(*listed, parent, "n {n} root {root} rank {rank}");
                }
            }
        }
    }

    /// Every rank's rounds of one schedule, by rank.
    fn all_ranks<I: Iterator<Item = Round>>(
        n: usize,
        gen: fn(usize, usize) -> I,
    ) -> Vec<Vec<Round>> {
        (0..n).map(|rank| gen(rank, n).collect()).collect()
    }

    /// Round `k` of rank `r` sends to `s` iff round `k` of `s` receives
    /// from `r`: walked in order by every rank, the schedule cannot
    /// deadlock.
    fn assert_rounds_pair_up(sched: &[Vec<Round>], what: &str) {
        for (r, rounds) in sched.iter().enumerate() {
            assert_eq!(rounds.len(), sched[0].len(), "{what}: rank {r} round count");
            for (k, round) in rounds.iter().enumerate() {
                assert_eq!(sched[round.to][k].from, r, "{what}: rank {r} round {k}");
            }
        }
    }

    /// Walk an allgather schedule on block-index sets: a rank may only
    /// send what it holds, its peer expects exactly those blocks, no
    /// block arrives twice, and everyone ends with all `n`.
    fn assert_allgather_completes(sched: &[Vec<Round>], what: &str) {
        let n = sched.len();
        let mut held: Vec<Vec<bool>> = (0..n).map(|r| (0..n).map(|b| b == r).collect()).collect();
        for k in 0..sched[0].len() {
            let before = held.clone();
            for (r, rounds) in sched.iter().enumerate() {
                let round = &rounds[k];
                assert_eq!(
                    sched[round.to][k].recv, round.send,
                    "{what}: rank {r} round {k}"
                );
                for b in round.send.clone() {
                    assert!(
                        before[r][b],
                        "{what}: rank {r} round {k} sends unheld block {b}"
                    );
                }
                for b in round.recv.clone() {
                    assert!(
                        !before[r][b],
                        "{what}: rank {r} round {k} gets block {b} twice"
                    );
                    held[r][b] = true;
                }
            }
        }
        assert!(held.iter().flatten().all(|&h| h), "{what}: incomplete");
    }

    #[test]
    fn schedules_pair_up_and_complete() {
        for n in 1usize..=17 {
            let d = all_ranks(n, super::dissemination);
            assert_rounds_pair_up(&d, "dissemination");
            assert_eq!(d[0].len(), n.next_power_of_two().trailing_zeros() as usize);

            let ring = all_ranks(n, super::ring);
            assert_rounds_pair_up(&ring, "ring");
            assert_allgather_completes(&ring, "ring");

            if n.is_power_of_two() {
                let rd = all_ranks(n, super::recursive_doubling);
                assert_rounds_pair_up(&rd, "recursive doubling");
                assert_allgather_completes(&rd, "recursive doubling");
            }

            // Pairwise: every peer met exactly once, each round moving
            // the block addressed to the peer and the one it owes us.
            let pw = all_ranks(n, super::pairwise);
            assert_rounds_pair_up(&pw, "pairwise");
            for (r, rounds) in pw.iter().enumerate() {
                let mut met: Vec<usize> = rounds.iter().map(|round| round.to).collect();
                met.sort_unstable();
                assert_eq!(met, (0..n).filter(|&p| p != r).collect::<Vec<_>>(), "n {n}");
                for round in rounds {
                    assert_eq!(round.send, round.to..round.to + 1);
                    assert_eq!(round.recv, round.from..round.from + 1);
                }
            }
        }
    }

    #[test]
    fn rooted_rounds_pair_up_in_real_ranks() {
        let (n, root) = (7, 3);
        let sched: Vec<Vec<Round>> = (0..n)
            .map(|rank| {
                let vrank = (rank + n - root) % n;
                super::ring(vrank, n).map(|r| r.rooted(root, n)).collect()
            })
            .collect();
        assert_rounds_pair_up(&sched, "rooted ring");
    }

    /// Executed equals described: on a traced world the recorder's
    /// per-pair ledger must show exactly the bytes the schedule's send
    /// spans add up to — what a closed-form rounds × bytes model of
    /// these collectives may lean on.
    #[test]
    fn pair_ledger_equals_the_schedules_send_spans() {
        use super::{allgather_rounds, binomial_tree, edges, pairwise, span};
        for n in [4usize, 5, 8, 13] {
            let w = || World::flat(NetModel::instant(), n).traced(true);
            let check = |what: &str, want: Vec<Vec<u64>>, trace: Option<crate::TraceReport>| {
                let trace = trace.expect("traced world");
                for (src, row) in want.iter().enumerate() {
                    for (dst, &bytes) in row.iter().enumerate() {
                        let got = trace.pair(src, dst).tx_bytes;
                        assert_eq!(got, bytes, "{what} n {n}: {src} -> {dst}");
                    }
                }
            };
            // What `rounds` of `rank` put on each pair, by `edge`.
            let tally = |want: &mut Vec<Vec<u64>>,
                         rank: usize,
                         rounds: &mut dyn Iterator<Item = Round>,
                         edge: &[usize]| {
                for r in rounds {
                    want[rank][r.to] += span(edge, &r.send).len() as u64;
                }
            };

            let blk = 3000;
            let edge = edges(&vec![blk; n]);
            let mut want = vec![vec![0u64; n]; n];
            for rank in 0..n {
                tally(
                    &mut want,
                    rank,
                    &mut allgather_rounds(rank, n, n.is_power_of_two()),
                    &edge,
                );
            }
            let out = w().run(|c| c.allgather(&vec![c.rank() as u8; blk]).len());
            check("allgather", want, out.trace);

            let mut want = vec![vec![0u64; n]; n];
            for rank in 0..n {
                tally(&mut want, rank, &mut pairwise(rank, n), &edge);
            }
            let out = w().run(|c| c.alltoall(&vec![c.rank() as u8; blk * n], blk).len());
            check("alltoall/pairwise", want, out.trace);

            let (len, root) = (100_003, n - 2);
            assert_eq!(super::bcast_alg(len), super::BcastAlg::ScatterAllgather);
            let edge: Vec<usize> = (0..=n).map(|i| i * len / n).collect();
            let mut want = vec![vec![0u64; n]; n];
            for rank in 0..n {
                let (_, _, children) = binomial_tree(rank, root, n);
                for (child, subtree) in children {
                    want[rank][child] += span(&edge, &subtree).len() as u64;
                }
                let vrank = (rank + n - root) % n;
                let mut rounds =
                    allgather_rounds(vrank, n, n.is_power_of_two()).map(|r| r.rooted(root, n));
                tally(&mut want, rank, &mut rounds, &edge);
            }
            let out = w().run(|c| {
                let mut buf = vec![c.rank() as u8; len];
                c.bcast(&mut buf, root);
            });
            check("bcast/sag", want, out.trace);
        }
    }

    #[test]
    #[should_panic(expected = "allreduce length mismatch")]
    fn allreduce_rejects_a_mismatched_count() {
        World::flat(NetModel::instant(), 2).run(|c| {
            c.allreduce(&vec![1u64; 2 + c.rank()], ops::sum);
        });
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
            let len = (36 << 10) + 17;
            assert_eq!(super::bcast_alg(len), super::BcastAlg::ScatterAllgather);
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
                // The blocking probe sees the message without consuming
                // it (its control filter names a tag nobody sends).
                let unsent = (crate::Src::Is(0), crate::TagSel::Is(crate::ctrl::NACK_TAG));
                let (is_ctrl, st) = c.probe_either((crate::Src::Any, crate::TagSel::Is(9)), unsent);
                assert!(!is_ctrl);
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
                // the chunked send (now visible to peeks); its control
                // filter names a tag nobody sends.
                let any = (crate::Src::Any, crate::TagSel::Any);
                let unsent = (
                    crate::Src::Is(0),
                    crate::TagSel::Is(crate::ctrl::REPAIR_TAG),
                );
                let (is_ctrl, st) = c.probe_either(any, unsent);
                assert!(!is_ctrl);
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
