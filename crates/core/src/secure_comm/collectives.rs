//! Collectives (Algorithm 1 shape: encrypt → plain collective →
//! decrypt), written over the record layer and the p2p routines.

use bytes::Bytes;
use empi_aead::chunked::chunk_count;
use empi_mpi::chunk::{ChunkFrame, ChunkedMessage};
use empi_mpi::coll::{bcast_alg, binomial_tree, edges, exchange, pairwise, ring, BcastAlg, Round};
use empi_mpi::{Src, Tag, TagSel};
use empi_netsim::{VDur, VTime};
use empi_pipeline::expect_chunked;
use empi_trace::Cat;

use super::{note_span, SecureComm};
use crate::error::{Error, Result};

/// Reserved-tag operation codes for SecureComm-level collective
/// protocols (the built-in plaintext collectives use codes 1–9; see
/// [`empi_mpi::Comm::reserved_tag`]).
const SEC_BCAST_OP: u32 = 32;
const SEC_ALLTOALL_OP: u32 = 33;
const SEC_ALLTOALLV_OP: u32 = 34;

/// Typed error unless a collective's local count matches the peer's.
fn check_len(local: usize, remote: usize) -> Result<()> {
    if local == remote {
        Ok(())
    } else {
        Err(Error::LengthMismatch { local, remote })
    }
}

/// A zero-length runt frame: relayed where a fault (or a misbehaving
/// peer) left nothing to forward, so the schedule stays intact and the
/// gap surfaces downstream as a typed error at the open.
fn runt(ready: VTime) -> ChunkFrame {
    ChunkFrame {
        data: Bytes::new(),
        ready,
    }
}

impl SecureComm<'_, '_> {
    /// Encrypted_Bcast: the root seals once; every non-root opens once.
    ///
    /// A 17-byte plaintext header round first announces the root's
    /// message length and wire format, so non-roots can size their wire
    /// buffers from the *root's* length (not their own), validate their
    /// local count, and dispatch on the format the root actually chose.
    /// A non-root whose buffer length disagrees with the root's still
    /// participates in the ciphertext movement (so its peers are
    /// unaffected) and then reports [`Error::LengthMismatch`] without
    /// decrypting.
    ///
    /// With pipelining in effect at the root for this length, the
    /// ciphertext moves as a chunked frame train down a binomial tree:
    /// each non-root forwards the frames to its children *before*
    /// opening them, so decryption overlaps the downstream hops. Like
    /// every MPI collective, all ranks must call `bcast` with the same
    /// root; the wire format is the root's choice and receivers follow
    /// it regardless of their local pipeline config.
    pub fn bcast(&self, buf: &mut Vec<u8>, root: usize) -> Result<()> {
        let len = buf.len();
        self.op_span("coll/bcast", root as i32, len, || {
            self.bcast_impl(buf, root)
        })
    }

    fn bcast_impl(&self, buf: &mut Vec<u8>, root: usize) -> Result<()> {
        let me = self.rank();
        let mut hdr = [0u8; 17];
        if me == root {
            hdr[..8].copy_from_slice(&(buf.len() as u64).to_be_bytes());
            hdr[8] = u8::from(self.pipe.applies_to(buf.len()));
            hdr[9..].copy_from_slice(&(self.cfg.pipeline.chunk_size as u64).to_be_bytes());
        }
        self.comm.bcast(&mut hdr, root);
        let root_len = u64::from_be_bytes(hdr[..8].try_into().unwrap()) as usize;
        // The header is plaintext and nothing has been authenticated
        // yet, while `root_len` sizes every buffer below: hold it to
        // MPI's `int` count before anything is allocated from it.
        if root_len > i32::MAX as usize {
            return Err(Error::LengthMismatch {
                local: buf.len(),
                remote: root_len,
            });
        }
        let root_chunk = u64::from_be_bytes(hdr[9..17].try_into().unwrap()) as usize;
        if hdr[8] != 0 {
            let tag = self.comm.reserved_tag(SEC_BCAST_OP);
            // Under ARQ every hop is recover-then-forward: a parent must
            // authenticate before relaying, because forwarding frames it
            // cannot vouch for would poison its own retransmit buffer.
            // That rules out the scatter–allgather ring (every rank
            // forwards *foreign* ciphertext groups), so ARQ broadcasts
            // always take the tree.
            if self.rel.arq_on() {
                return self.bcast_tree_arq(buf, root, root_len, tag);
            }
            // The plaintext transport's algorithm switch, asked of the
            // transport itself so the two layers cannot disagree.
            return match bcast_alg(root_len) {
                BcastAlg::Binomial => self.bcast_pipelined_tree(buf, root, root_len, tag),
                BcastAlg::ScatterAllgather => {
                    self.bcast_pipelined_sag(buf, root, root_len, root_chunk, tag)
                }
            };
        }
        let mut wire = if me == root {
            self.seal_wire(buf, None)
        } else {
            vec![0u8; root_len + self.keys.overhead()]
        };
        self.comm.bcast(&mut wire, root);
        if me != root {
            check_len(buf.len(), root_len)?;
            *buf = self.open_to_vec(Some(root), &wire)?;
        }
        Ok(())
    }

    /// Pipelined broadcast, short-message body: a binomial tree over
    /// chunked frame trains. The root seals once on the worker pool;
    /// every other rank receives the train from its tree parent,
    /// forwards the ciphertext frames to its children first, and only
    /// then opens them — one logical open per non-root, exactly like
    /// the sequential shape.
    fn bcast_pipelined_tree(
        &self,
        buf: &mut Vec<u8>,
        root: usize,
        root_len: usize,
        tag: Tag,
    ) -> Result<()> {
        let (parent, _, children) = binomial_tree(self.rank(), root, self.size());
        // The root announced the chunked format; a parent that sends a
        // plain record anyway is a typed wire-format error, not a panic.
        let incoming = parent.map(|p| {
            let payload = self.comm.recv_maybe_chunked(Src::Is(p), TagSel::Is(tag));
            expect_chunked(payload).map_err(Error::from)
        });

        // The ciphertext train this rank relays: sealed at the root,
        // re-stamped with arrival times everywhere else. The per-frame
        // `clone` is a refcount bump, not a copy — relaying and the
        // local open share one buffer.
        let frames: Vec<ChunkFrame> = match &incoming {
            None => self.seal_chunked_frames(buf, None),
            Some(Ok(msg)) => msg
                .frames
                .iter()
                .map(|(at, f)| ChunkFrame {
                    data: f.clone(),
                    ready: *at,
                })
                .collect(),
            Some(Err(_)) => vec![runt(self.comm.sim().now())],
        };

        // Forward to children before opening, so the local decryption
        // overlaps the downstream hops.
        let pending: Vec<_> = children
            .map(|(child, _)| self.isend_frames(frames.clone(), child, tag))
            .collect();

        let result = match incoming {
            None => Ok(()), // root: plaintext already in `buf`
            Some(Err(e)) => Err(e),
            Some(Ok(msg)) => check_len(buf.len(), root_len).and_then(|()| {
                *buf = self.open_chunked(msg, None).map_err(|(e, _)| e)?;
                Ok(())
            }),
        };
        for req in pending {
            let _ = self.comm.wait_payload(req);
        }
        result
    }

    /// Pipelined broadcast, long-message body: the root's sealed frame
    /// train is scattered by contiguous frame groups (group `g` to
    /// vrank `g`), then an allgather ring circulates the ciphertext
    /// groups for `n−1` steps until every rank holds the full train.
    /// Bandwidth matches the transport's scatter–allgather (each rank
    /// moves ~`len` bytes, regardless of `n`) while the root's sealing
    /// and every receiver's decryption ride the worker pool, off the
    /// critical path. Every rank derives the same frame partition from
    /// the header's `(len, chunk_size)`, so empty groups (more ranks
    /// than chunks) are skipped symmetrically.
    fn bcast_pipelined_sag(
        &self,
        buf: &mut Vec<u8>,
        root: usize,
        root_len: usize,
        root_chunk: usize,
        tag: Tag,
    ) -> Result<()> {
        let n = self.size();
        let me = self.rank();
        let vrank = (me + n - root) % n;
        let total = chunk_count(root_len, root_chunk.max(1)) as usize;
        let (base, rem) = (total / n, total % n);
        let gsize = |g: usize| base + usize::from(g < rem);
        let gstart = |g: usize| g * base + g.min(rem);

        // Frame slots in index order, filled by the seal (root) or by
        // the scatter and ring receives (everyone else).
        let mut slots: Vec<Option<ChunkFrame>> = (0..total).map(|_| None).collect();
        // Receive group `g` from `from` into its slots. A plain record
        // where the root announced the chunked format leaves the slots
        // empty (relayed as runts, so the ring stays live) and is
        // reported as a typed error once the schedule has run.
        let mut wire_err: Option<Error> = None;
        let mut recv_group = |slots: &mut [Option<ChunkFrame>], g: usize, from: usize| {
            let payload = self.comm.recv_maybe_chunked(Src::Is(from), TagSel::Is(tag));
            match expect_chunked(payload) {
                // Fault injection can duplicate frames: never write
                // past the group's slot range (excess frames are
                // corruption, surfaced by the final open).
                Ok(msg) => {
                    for (off, (at, data)) in msg.frames.into_iter().enumerate().take(gsize(g)) {
                        slots[gstart(g) + off] = Some(ChunkFrame { data, ready: at });
                    }
                }
                Err(e) => {
                    wire_err.get_or_insert(e.into());
                }
            }
        };
        let mut scatter_reqs = Vec::new();
        if me == root {
            let frames = self.seal_chunked_frames(buf, None);
            debug_assert_eq!(frames.len(), total);
            for g in 1..n {
                if gsize(g) > 0 {
                    let part = frames[gstart(g)..gstart(g) + gsize(g)].to_vec();
                    scatter_reqs.push(self.isend_frames(part, (g + root) % n, tag));
                }
            }
            for (i, f) in frames.into_iter().enumerate() {
                slots[i] = Some(f);
            }
        } else if gsize(vrank) > 0 {
            recv_group(&mut slots, vrank, root);
        }

        // Allgather ring over the frame groups, in vrank space: each
        // round forwards the group received the round before and
        // receives the next one from the ring predecessor.
        for r in ring(vrank, n).map(|r| r.rooted(root, n)) {
            let (sg, rg) = (r.send.start, r.recv.start);
            let sreq = (gsize(sg) > 0).then(|| {
                // A slot a fault dropped upstream is forwarded as a
                // runt (clean runs always have every slot filled).
                let part: Vec<ChunkFrame> = slots[gstart(sg)..gstart(sg) + gsize(sg)]
                    .iter()
                    .map(|f| f.clone().unwrap_or_else(|| runt(self.comm.sim().now())))
                    .collect();
                self.isend_frames(part, r.to, tag)
            });
            if gsize(rg) > 0 {
                recv_group(&mut slots, rg, r.from);
            }
            if let Some(r) = sreq {
                let _ = self.comm.wait_payload(r);
            }
        }
        for r in scatter_reqs {
            let _ = self.comm.wait_payload(r);
        }

        if me == root {
            return Ok(());
        }
        if let Some(e) = wire_err {
            return Err(e);
        }
        check_len(buf.len(), root_len)?;
        let msg = ChunkedMessage {
            src: root,
            tag,
            frames: slots
                .into_iter()
                .map(|f| f.unwrap_or_else(|| runt(self.comm.sim().now())))
                .map(|f| (f.ready, f.data))
                .collect(),
        };
        *buf = self.open_chunked(msg, None).map_err(|(e, _)| e)?;
        Ok(())
    }

    /// Broadcast body under the retransmit layer: a binomial tree of
    /// recover-then-forward hops. Each non-root first receives *and
    /// recovers* the plaintext from its tree parent (per-chunk NACKs on
    /// the parent link), then re-seals fresh frames for its children —
    /// so every link runs its own ARQ conversation and a rank only ever
    /// retains ciphertext it can vouch for.
    ///
    /// Degradation is graceful: a rank whose upstream recovery fails
    /// terminally still forwards a zero-length sentinel downstream, so
    /// its subtree stays live (descendants observe a length mismatch
    /// against the announced root length and report it as a typed
    /// error) while the failing rank reports the delivery error itself.
    fn bcast_tree_arq(
        &self,
        buf: &mut Vec<u8>,
        root: usize,
        root_len: usize,
        tag: Tag,
    ) -> Result<()> {
        let (parent, _, children) = binomial_tree(self.rank(), root, self.size());
        // On an upstream error the sentinel payload stays empty.
        let upstream = match parent {
            Some(p) => self.recv(Src::Is(p), TagSel::Is(tag)).map(|(_, plain)| plain),
            None => Ok(Vec::new()),
        };
        let fwd: &[u8] = match (&upstream, parent) {
            (_, None) => &buf[..],
            (Ok(payload), _) => payload,
            (Err(_), _) => &[],
        };
        let pending: Vec<_> = children
            .map(|(child, _)| self.isend(fwd, child, tag))
            .collect();
        for req in pending {
            self.wait(req)?;
        }
        if parent.is_none() {
            return Ok(());
        }
        let payload = upstream?;
        check_len(buf.len(), root_len)?;
        // An ancestor's sentinel (or a short repair): typed, not silent.
        check_len(root_len, payload.len())?;
        *buf = payload;
        Ok(())
    }

    /// Encrypted_Allgather: seal own block, plain allgather of
    /// `(len+28)`-byte blocks, open all `n` received blocks.
    pub fn allgather(&self, send: &[u8]) -> Result<Vec<u8>> {
        self.op_span("coll/allgather", -1, send.len(), || {
            let n = self.size();
            let wire_block = send.len() + self.keys.overhead();
            let sealed = self.seal_wire(send, None);
            let gathered = self.comm.allgather(&sealed);
            debug_assert_eq!(gathered.len(), wire_block * n);
            let mut out = Vec::with_capacity(send.len() * n);
            for (i, block) in gathered.chunks_exact(wire_block).enumerate() {
                if i == self.rank() {
                    out.extend_from_slice(send);
                    self.charge_self_open(send.len());
                } else {
                    self.open_append(i, block, &mut out)?;
                }
            }
            Ok(out)
        })
    }

    /// The self block needs no decryption, but the paper's Algorithm 1
    /// decrypts all `n` blocks; charge it. The span is recorded, the
    /// byte counters are not — no ciphertext actually flows.
    fn charge_self_open(&self, bytes: usize) {
        let t0 = self.comm.sim().now().as_nanos();
        self.comm.sim().advance(VDur(self.calibrated_ns(bytes)));
        let backend = || self.cfg.library.name().to_string();
        note_span(self.comm, Cat::Crypto, "open", t0, bytes, backend, None);
    }

    /// Encrypted_Alltoall — the paper's Algorithm 1 verbatim: one fresh
    /// nonce and one encryption per outgoing block, plain `MPI_Alltoall`
    /// of `(ℓ+28)`-byte blocks, one decryption per incoming block.
    ///
    /// With pipelining in effect for the (uniform) block size, the
    /// exchange runs as pairwise rounds of chunked frame trains so the
    /// per-block seals and opens ride the worker-core pool and overlap
    /// the wire. Collectives require a uniform pipeline configuration
    /// across ranks (the shape must agree, like any MPI collective);
    /// point-to-point interoperates across mixed configs regardless.
    pub fn alltoall(&self, send: &[u8], block: usize) -> Result<Vec<u8>> {
        self.op_span("coll/alltoall", -1, send.len(), || {
            let n = self.size();
            assert_eq!(send.len(), block * n, "alltoall buffer size mismatch");
            let counts = vec![block; n];
            if self.pipe.applies_to(block) && n > 1 {
                let tag = self.comm.reserved_tag(SEC_ALLTOALL_OP);
                return self.alltoallv_pipelined(send, &counts, &counts, tag);
            }
            let wire_block = block + self.keys.overhead();
            let enc_send = self.seal_blocks(send, &counts);
            let enc_recv = self.comm.alltoall(&enc_send, wire_block);
            self.open_blocks(&enc_recv, &counts)
        })
    }

    /// Encrypted_Alltoallv: per-destination segments, each sealed with a
    /// fresh nonce (+28 bytes per segment, even empty ones).
    ///
    /// With pipelining enabled the exchange runs as pairwise rounds and
    /// each segment *independently* picks its wire format by size:
    /// segments above one chunk go out as chunked frame trains, small
    /// ones as plain sealed records. The receiver dispatches on the
    /// format per segment, so ragged counts mix freely. Like
    /// [`SecureComm::alltoall`], the pipeline config must be uniform
    /// across ranks for collectives.
    pub fn alltoallv(
        &self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Vec<u8>> {
        self.op_span("coll/alltoallv", -1, send.len(), || {
            let n = self.size();
            assert_eq!(send_counts.len(), n);
            assert_eq!(recv_counts.len(), n);
            if self.cfg.pipeline.enabled && n > 1 {
                let tag = self.comm.reserved_tag(SEC_ALLTOALLV_OP);
                return self.alltoallv_pipelined(send, send_counts, recv_counts, tag);
            }
            let overhead = self.keys.overhead();
            let enc_send_counts: Vec<usize> = send_counts.iter().map(|c| c + overhead).collect();
            let enc_recv_counts: Vec<usize> = recv_counts.iter().map(|c| c + overhead).collect();
            let enc_send = self.seal_blocks(send, send_counts);
            let enc_recv = self
                .comm
                .alltoallv(&enc_send, &enc_send_counts, &enc_recv_counts);
            self.open_blocks(&enc_recv, recv_counts)
        })
    }

    /// Seal consecutive `counts`-sized blocks of `send` into one
    /// collective send buffer, no per-block wire `Vec`.
    fn seal_blocks(&self, send: &[u8], counts: &[usize]) -> Vec<u8> {
        let mut enc = Vec::with_capacity(send.len() + counts.len() * self.keys.overhead());
        let mut off = 0;
        for &c in counts {
            let key = self.seal_key();
            self.seal_record(&key, "seal/coll", None, &send[off..off + c], &mut enc);
            off += c;
        }
        enc
    }

    /// Open the block received from each rank `i` (`counts[i]` plaintext
    /// bytes) into one result buffer.
    fn open_blocks(&self, enc: &[u8], counts: &[usize]) -> Result<Vec<u8>> {
        let overhead = self.keys.overhead();
        let mut out = Vec::with_capacity(counts.iter().sum());
        let mut off = 0;
        for (i, &c) in counts.iter().enumerate() {
            self.open_append(i, &enc[off..off + c + overhead], &mut out)?;
            off += c + overhead;
        }
        Ok(out)
    }

    /// Pipelined alltoall(v) body: the transport's `pairwise` schedule
    /// walked with a seal → isend / recv → open → wait hop and a
    /// per-segment format choice (chunked above one chunk, plain sealed
    /// otherwise). Algorithm 1 still
    /// encrypts and decrypts all `n` segments — the self segment is
    /// sealed and opened without touching the wire.
    fn alltoallv_pipelined(
        &self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
        tag: Tag,
    ) -> Result<Vec<u8>> {
        let me = self.rank();
        let (send_edge, recv_edge) = (edges(send_counts), edges(recv_counts));
        let mut out = vec![0u8; recv_edge[self.size()]];

        let seg = &send[send_edge[me]..send_edge[me + 1]];
        let self_plain = if self.pipe.applies_to(seg.len()) {
            let frames = self.seal_chunked_frames(seg, Some(me));
            let msg = ChunkedMessage {
                src: me,
                tag,
                frames: frames.into_iter().map(|f| (f.ready, f.data)).collect(),
            };
            self.open_chunked(msg, Some(me)).map_err(|(e, _)| e)?
        } else {
            let wire = self.seal_wire(seg, Some(me));
            self.open_to_vec(Some(me), &wire)?
        };
        out[recv_edge[me]..recv_edge[me + 1]].copy_from_slice(&self_plain);

        // A failed round must not end this rank's part of the schedule:
        // the peers of its later rounds still wait for its segments. The
        // failed segment stays zero-filled, the walk goes on, and the
        // first error is reported once every round has run.
        let mut first_err = None;
        let hop = |_, r: &Round, seg: &[u8]| {
            let sreq = self.isend_impl(seg, r.to, tag);
            let got = self
                .recv(Src::Is(r.from), TagSel::Is(tag))
                .and_then(|(_, plain)| check_len(recv_counts[r.from], plain.len()).map(|()| plain));
            let sent = self.wait(sreq);
            Ok::<_, Error>(match got.and_then(|plain| sent.map(|_| plain)) {
                Ok(plain) => plain,
                Err(e) => {
                    first_err.get_or_insert(e);
                    vec![0; recv_counts[r.from]]
                }
            })
        };
        let send = Some((send, &send_edge[..]));
        exchange(pairwise(me, self.size()), send, (&mut out, &recv_edge), hop)?;
        first_err.map_or(Ok(out), Err)
    }

    // ---------------------------------------------------------------
    // Plaintext-metadata helpers used by the NAS kernels: reductions
    // carry numeric values whose confidentiality the paper does not
    // address (its encrypted routines are the four collectives above
    // plus p2p); they pass through unencrypted, like in the paper's
    // prototypes.
    // ---------------------------------------------------------------

    /// Plain barrier (no payload to protect).
    pub fn barrier(&self) {
        self.op_span("coll/barrier", -1, 0, || self.comm.barrier());
    }

    /// Plain allreduce passthrough (see module note).
    pub fn allreduce_plain<T: empi_mpi::Pod + Default>(
        &self,
        data: &[T],
        op: impl Fn(&mut T, &T) + Copy,
    ) -> Vec<T> {
        self.comm.allreduce(data, op)
    }
}
