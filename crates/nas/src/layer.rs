//! The communication layer abstraction: every NAS kernel is written once
//! against [`CommLayer`] and runs unchanged on plain MPI (the baseline)
//! or on the encrypted library (the measurement) — mirroring how the
//! paper relinks the same NAS binaries against its encrypted MPICH.
//!
//! Per §IV, the encrypted library covers point-to-point plus
//! `Bcast`/`Allgather`/`Alltoall`/`Alltoallv`; reductions and barriers
//! pass through the plain library in both layers.

use empi_core::{SecureComm, SecurityConfig};
use empi_mpi::{Comm, Src, Tag, TagSel};
use empi_netsim::VDur;

/// Communication operations the NAS kernels need.
pub trait CommLayer {
    /// This rank.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// Charge compute time to this rank's virtual core.
    fn compute(&self, d: VDur);
    /// Charge `d` of modeled compute time while running `f` — the
    /// kernel's real arithmetic. Under a sharded world the closure
    /// overlaps with other ranks on real cores; the default simply
    /// runs `f` then charges (the serial behaviour). `&mut dyn FnMut`
    /// keeps the trait dyn-compatible for the `&dyn CommLayer` blanket.
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        f();
        self.compute(d);
    }
    /// Barrier (plain in both layers).
    fn barrier(&self);
    /// Elementwise sum allreduce (plain in both layers, per §IV).
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64>;
    /// Max allreduce over i64 (plain).
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64>;
    /// Broadcast.
    fn bcast(&self, buf: &mut Vec<u8>, root: usize);
    /// Allgather of equal blocks.
    fn allgather(&self, send: &[u8]) -> Vec<u8>;
    /// Alltoall of equal blocks.
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8>;
    /// Alltoallv with per-rank counts.
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8>;
    /// Blocking send.
    fn send(&self, buf: &[u8], dst: usize, tag: Tag);
    /// Blocking receive from a specific rank/tag.
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8>;
    /// Symmetric exchange.
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8>;
}

/// Baseline layer: plain MPI.
pub struct PlainLayer<'a, 'h> {
    comm: &'a Comm<'h>,
}

impl<'a, 'h> PlainLayer<'a, 'h> {
    /// Wrap a communicator.
    pub fn new(comm: &'a Comm<'h>) -> Self {
        PlainLayer { comm }
    }
}

impl CommLayer for PlainLayer<'_, '_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }
    fn size(&self) -> usize {
        self.comm.size()
    }
    fn compute(&self, d: VDur) {
        self.comm.compute(d);
    }
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        self.comm.compute_with(d, f);
    }
    fn barrier(&self) {
        self.comm.barrier();
    }
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.comm.allreduce(data, empi_mpi::ops::sum)
    }
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64> {
        self.comm.allreduce(data, empi_mpi::ops::max)
    }
    fn bcast(&self, buf: &mut Vec<u8>, root: usize) {
        self.comm.bcast(buf, root);
    }
    fn allgather(&self, send: &[u8]) -> Vec<u8> {
        self.comm.allgather(send)
    }
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        self.comm.alltoall(send, block)
    }
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8> {
        self.comm.alltoallv(send, scounts, rcounts)
    }
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.comm.send(buf, dst, tag);
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.comm.recv(Src::Is(src), TagSel::Is(tag)).1.into()
    }
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8> {
        self.comm
            .sendrecv(sendbuf, dst, tag, Src::Is(src), TagSel::Is(tag))
            .1
            .into()
    }
}

/// Encrypted layer: AES-GCM on p2p and the four covered collectives.
pub struct SecureLayer<'a, 'h> {
    sc: SecureComm<'a, 'h>,
}

impl<'a, 'h> SecureLayer<'a, 'h> {
    /// Wrap a communicator with the given security configuration.
    pub fn new(comm: &'a Comm<'h>, cfg: SecurityConfig) -> Self {
        SecureLayer {
            sc: SecureComm::new(comm, cfg).expect("secure layer init"),
        }
    }
}

impl CommLayer for SecureLayer<'_, '_> {
    fn rank(&self) -> usize {
        self.sc.rank()
    }
    fn size(&self) -> usize {
        self.sc.size()
    }
    fn compute(&self, d: VDur) {
        self.sc.inner().compute(d);
    }
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        self.sc.inner().compute_with(d, f);
    }
    fn barrier(&self) {
        self.sc.barrier();
    }
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.sc.allreduce_plain(data, empi_mpi::ops::sum)
    }
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64> {
        self.sc.allreduce_plain(data, empi_mpi::ops::max)
    }
    fn bcast(&self, buf: &mut Vec<u8>, root: usize) {
        self.sc.bcast(buf, root).expect("encrypted bcast");
    }
    fn allgather(&self, send: &[u8]) -> Vec<u8> {
        self.sc.allgather(send).expect("encrypted allgather")
    }
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        self.sc.alltoall(send, block).expect("encrypted alltoall")
    }
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8> {
        self.sc
            .alltoallv(send, scounts, rcounts)
            .expect("encrypted alltoallv")
    }
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.sc.send(buf, dst, tag);
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.sc
            .recv(Src::Is(src), TagSel::Is(tag))
            .expect("encrypted recv")
            .1
            .into()
    }
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8> {
        self.sc
            .sendrecv(sendbuf, dst, tag, Src::Is(src), TagSel::Is(tag))
            .expect("encrypted sendrecv")
            .1
            .into()
    }
}

/// Delegation so harnesses can pick a layer at runtime and hand the
/// kernels a `&&dyn CommLayer` (the kernels are generic over
/// `impl CommLayer`).
impl CommLayer for &dyn CommLayer {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn compute(&self, d: VDur) {
        (**self).compute(d)
    }
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        (**self).compute_with(d, f)
    }
    fn barrier(&self) {
        (**self).barrier()
    }
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        (**self).allreduce_sum(data)
    }
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64> {
        (**self).allreduce_max_i64(data)
    }
    fn bcast(&self, buf: &mut Vec<u8>, root: usize) {
        (**self).bcast(buf, root)
    }
    fn allgather(&self, send: &[u8]) -> Vec<u8> {
        (**self).allgather(send)
    }
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        (**self).alltoall(send, block)
    }
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8> {
        (**self).alltoallv(send, scounts, rcounts)
    }
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        (**self).send(buf, dst, tag)
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        (**self).recv(src, tag)
    }
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8> {
        (**self).sendrecv(sendbuf, dst, src, tag)
    }
}

/// Typed helpers shared by the kernels.
pub mod bytes {
    /// f64 slice → bytes.
    pub fn f64s(xs: &[f64]) -> &[u8] {
        empi_mpi::as_bytes(xs)
    }
    /// bytes → f64 vec.
    pub fn to_f64s(b: &[u8]) -> Vec<f64> {
        empi_mpi::vec_from_bytes(b)
    }
    /// u32 slice → bytes.
    pub fn u32s(xs: &[u32]) -> &[u8] {
        empi_mpi::as_bytes(xs)
    }
    /// bytes → u32 vec.
    pub fn to_u32s(b: &[u8]) -> Vec<u32> {
        empi_mpi::vec_from_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_aead::CryptoLibrary;
    use empi_mpi::World;
    use empi_netsim::NetModel;

    fn exercise(layer: &impl CommLayer) -> (Vec<f64>, Vec<u8>) {
        let r = layer.rank();
        let sums = layer.allreduce_sum(&[r as f64, 1.0]);
        let gathered = layer.allgather(&[r as u8]);
        layer.barrier();
        (sums, gathered)
    }

    #[test]
    fn plain_and_secure_layers_agree_functionally() {
        for secure in [false, true] {
            let w = World::flat(NetModel::instant(), 4);
            let out = w.run(|c| {
                if secure {
                    let l = SecureLayer::new(c, SecurityConfig::new(CryptoLibrary::Libsodium));
                    exercise(&l)
                } else {
                    let l = PlainLayer::new(c);
                    exercise(&l)
                }
            });
            for (sums, gathered) in out.results {
                assert_eq!(sums, vec![6.0, 4.0]);
                assert_eq!(gathered, vec![0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn secure_layer_costs_more_virtual_time() {
        let run = |secure: bool| {
            let w = World::flat(NetModel::ethernet_10g(), 4);
            w.run(|c| {
                let payload = vec![1u8; 64 << 10];
                if secure {
                    let l = SecureLayer::new(c, SecurityConfig::new(CryptoLibrary::CryptoPp));
                    for _ in 0..3 {
                        l.alltoall(&payload, (64 << 10) / 4);
                    }
                } else {
                    let l = PlainLayer::new(c);
                    for _ in 0..3 {
                        l.alltoall(&payload, (64 << 10) / 4);
                    }
                }
            })
            .end_time
        };
        let base = run(false);
        let enc = run(true);
        assert!(enc > base, "encrypted {enc} must exceed baseline {base}");
    }
}
