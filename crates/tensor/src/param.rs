//! Persistent trainable parameters.
//!
//! A [`ParamStore`] owns the data and gradient buffers of every trainable
//! tensor in a model. A forward pass injects parameters into a fresh
//! [`crate::Tape`] as leaf nodes; [`crate::Tape::backward`] accumulates
//! gradients back into the store, where an optimizer consumes them.

use crate::shape::Shape;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[must_use = "a ParamId is the only handle to the parameter just registered; dropping it orphans the entry"]
pub struct ParamId(pub(crate) usize);

#[derive(Clone, Debug)]
struct ParamEntry {
    name: String,
    shape: Shape,
    data: Vec<f32>,
    grad: Vec<f32>,
}

/// Owns all trainable parameters of a model (data + gradient buffers).
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter with initial values. Panics if `data` does
    /// not match `shape`, or if `name` is already taken.
    pub fn register(&mut self, name: &str, shape: Vec<usize>, data: Vec<f32>) -> ParamId {
        let shape = Shape(shape);
        assert_eq!(
            shape.numel(),
            data.len(),
            "param '{}': shape {:?} does not match data length {}",
            name,
            shape,
            data.len()
        );
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "param '{}' registered twice",
            name
        );
        let grad = vec![0.0; data.len()];
        self.entries.push(ParamEntry {
            name: name.to_string(),
            shape,
            data,
            grad,
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// The parameter's values.
    pub fn data(&self, id: ParamId) -> &[f32] {
        &self.entries[id.0].data
    }

    /// Mutable access to the parameter's values (used by optimizers).
    pub fn data_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.entries[id.0].data
    }

    /// The parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.entries[id.0].grad
    }

    /// Mutable access to the gradient buffer.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.entries[id.0].grad
    }

    /// The parameter's shape.
    pub fn shape(&self, id: ParamId) -> &Shape {
        &self.entries[id.0].shape
    }

    /// The parameter's registration name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zero every gradient buffer (call before accumulating a new batch).
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .flat_map(|e| e.grad.iter())
            .map(|g| g * g)
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient by `factor` (used by gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for e in &mut self.entries {
            e.grad.iter_mut().for_each(|g| *g *= factor);
        }
    }

    /// A zeroed [`GradBuffer`] matching this store's parameter layout.
    ///
    /// Data-parallel training gives each batch item its own buffer, runs
    /// [`crate::Tape::backward_into`] against it, and folds the buffers in
    /// item order into the store with [`ParamStore::merge_grads`] — the
    /// same bits at every worker count.
    pub fn grad_buffer(&self) -> GradBuffer {
        GradBuffer {
            bufs: self
                .entries
                .iter()
                .map(|e| vec![0.0; e.data.len()])
                .collect(),
        }
    }

    /// Add a detached gradient buffer into this store's gradients
    /// (elementwise, like a batch of extra [`crate::Tape::backward`] calls).
    /// Panics if the buffer's layout does not match.
    pub fn merge_grads(&mut self, buf: &GradBuffer) {
        assert_eq!(
            buf.bufs.len(),
            self.entries.len(),
            "merge_grads: buffer layout mismatch"
        );
        for (e, b) in self.entries.iter_mut().zip(&buf.bufs) {
            assert_eq!(
                e.grad.len(),
                b.len(),
                "merge_grads: size mismatch for '{}'",
                e.name
            );
            for (g, s) in e.grad.iter_mut().zip(b) {
                *g += *s;
            }
        }
    }

    /// Snapshot all parameter values (for model-selection checkpoints).
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.entries.iter().map(|e| e.data.clone()).collect()
    }

    /// Restore a snapshot previously taken with [`ParamStore::snapshot`].
    /// Panics if the layout differs.
    pub fn restore(&mut self, snap: &[Vec<f32>]) {
        assert_eq!(snap.len(), self.entries.len(), "snapshot layout mismatch");
        for (e, s) in self.entries.iter_mut().zip(snap) {
            assert_eq!(
                e.data.len(),
                s.len(),
                "snapshot size mismatch for '{}'",
                e.name
            );
            e.data.copy_from_slice(s);
        }
    }
}

/// A detached gradient accumulation buffer with the same layout as the
/// [`ParamStore`] that created it (see [`ParamStore::grad_buffer`]).
///
/// Unlike the store's own gradient buffers, a `GradBuffer` is independent
/// of the parameter data, so any number of them can accumulate in parallel
/// against a shared `&ParamStore` before being merged back serially.
#[derive(Clone, Debug)]
pub struct GradBuffer {
    pub(crate) bufs: Vec<Vec<f32>>,
}

impl GradBuffer {
    /// Elementwise-add `other` into `self` (the combine step of the
    /// trainer's item-order fold over per-item buffers). Panics on layout
    /// mismatch.
    pub fn accumulate(&mut self, other: &GradBuffer) {
        assert_eq!(
            self.bufs.len(),
            other.bufs.len(),
            "GradBuffer::accumulate: layout mismatch"
        );
        for (d, s) in self.bufs.iter_mut().zip(&other.bufs) {
            assert_eq!(d.len(), s.len(), "GradBuffer::accumulate: size mismatch");
            for (g, v) in d.iter_mut().zip(s) {
                *g += *v;
            }
        }
    }

    /// Add one leaf's gradient `g` into `id`'s buffer.
    pub(crate) fn add(&mut self, id: ParamId, g: &[f32]) {
        for (d, s) in self.bufs[id.0].iter_mut().zip(g) {
            *d += *s;
        }
    }

    /// The accumulated gradient for `id`.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.bufs[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut s = ParamStore::new();
        let id = s.register("w", vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.data(id), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.grad(id), &[0.0; 4]);
        assert_eq!(s.shape(id).as_matrix(), (2, 2));
        assert_eq!(s.name(id), "w");
        assert_eq!(s.num_scalars(), 4);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        let _ = s.register("w", vec![1], vec![0.0]);
        let _ = s.register("w", vec![1], vec![0.0]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = ParamStore::new();
        let id = s.register("w", vec![2], vec![1.0, 2.0]);
        let snap = s.snapshot();
        s.data_mut(id)[0] = 9.0;
        s.restore(&snap);
        assert_eq!(s.data(id), &[1.0, 2.0]);
    }

    #[test]
    fn grad_buffer_merge_matches_direct_accumulation() {
        let mut s = ParamStore::new();
        let id = s.register("w", vec![3], vec![0.0; 3]);
        let mut b1 = s.grad_buffer();
        let mut b2 = s.grad_buffer();
        b1.bufs[id.0].copy_from_slice(&[1.0, 2.0, 3.0]);
        b2.bufs[id.0].copy_from_slice(&[10.0, 20.0, 30.0]);
        b1.accumulate(&b2);
        assert_eq!(b1.grad(id), &[11.0, 22.0, 33.0]);
        s.merge_grads(&b1);
        s.merge_grads(&b2);
        assert_eq!(s.grad(id), &[21.0, 42.0, 63.0]);
    }

    #[test]
    fn grad_norm_and_scale() {
        let mut s = ParamStore::new();
        let id = s.register("w", vec![2], vec![0.0, 0.0]);
        s.grad_mut(id).copy_from_slice(&[3.0, 4.0]);
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.scale_grads(0.5);
        assert_eq!(s.grad(id), &[1.5, 2.0]);
        s.zero_grads();
        assert_eq!(s.grad(id), &[0.0, 0.0]);
    }
}
