//! The Adam optimizer (Kingma & Ba) plus gradient clipping, operating
//! directly on a [`harp_tensor::ParamStore`].

use harp_tensor::ParamStore;

/// Hyperparameters for [`Adam`].
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// L2 weight decay (decoupled, AdamW-style; 0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// Default config with the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        AdamConfig {
            lr,
            ..Default::default()
        }
    }
}

/// Adam optimizer state (first/second moments per parameter scalar).
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

/// A portable copy of an [`Adam`]'s mutable state, for training snapshots.
/// Capture with [`Adam::export_state`], revive with [`Adam::import_state`].
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    /// First moments, one buffer per parameter in store order.
    pub m: Vec<Vec<f32>>,
    /// Second moments, one buffer per parameter in store order.
    pub v: Vec<Vec<f32>>,
    /// Number of optimizer steps taken.
    pub t: u64,
    /// Learning rate at capture time (schedules/rollbacks mutate it).
    pub lr: f32,
}

/// Why an [`AdamState`] could not be imported into an optimizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdamStateMismatch {
    /// Which part of the state disagreed with the store layout.
    pub detail: String,
}

impl std::fmt::Display for AdamStateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimizer state mismatch: {}", self.detail)
    }
}

impl std::error::Error for AdamStateMismatch {}

impl Adam {
    /// Create optimizer state matching the store's current layout.
    pub fn new(store: &ParamStore, cfg: AdamConfig) -> Self {
        let m = store
            .ids()
            .map(|id| vec![0.0; store.data(id).len()])
            .collect();
        let v = store
            .ids()
            .map(|id| vec![0.0; store.data(id).len()])
            .collect();
        Adam { cfg, m, v, t: 0 }
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Override the learning rate (e.g. for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Copy out the mutable state (moments, step count, learning rate) for
    /// a training snapshot.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
            lr: self.cfg.lr,
        }
    }

    /// Replace this optimizer's mutable state with a previously exported
    /// one. Rejects (leaving `self` untouched) when the moment layout does
    /// not match the optimizer's, naming the offending buffer — an
    /// optimizer-state snapshot from a different architecture must fail
    /// loudly instead of silently mis-applying moments.
    pub fn import_state(&mut self, state: &AdamState) -> Result<(), AdamStateMismatch> {
        if state.m.len() != self.m.len() || state.v.len() != self.v.len() {
            return Err(AdamStateMismatch {
                detail: format!(
                    "snapshot has {} first-moment / {} second-moment buffers, optimizer has {}",
                    state.m.len(),
                    state.v.len(),
                    self.m.len()
                ),
            });
        }
        for (i, (ours, theirs)) in self.m.iter().zip(&state.m).enumerate() {
            if ours.len() != theirs.len() {
                return Err(AdamStateMismatch {
                    detail: format!(
                        "first-moment buffer {i}: snapshot has {} values, optimizer has {}",
                        theirs.len(),
                        ours.len()
                    ),
                });
            }
        }
        for (i, (ours, theirs)) in self.v.iter().zip(&state.v).enumerate() {
            if ours.len() != theirs.len() {
                return Err(AdamStateMismatch {
                    detail: format!(
                        "second-moment buffer {i}: snapshot has {} values, optimizer has {}",
                        theirs.len(),
                        ours.len()
                    ),
                });
            }
        }
        self.m = state.m.clone();
        self.v = state.v.clone();
        self.t = state.t;
        self.cfg.lr = state.lr;
        Ok(())
    }

    /// Apply one update using the gradients accumulated in `store`, then
    /// leave gradients untouched (call [`ParamStore::zero_grads`] yourself,
    /// or use [`Adam::step_and_zero`]).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        // lint: allow(as-cast) — powi takes i32; step counts stay far below i32::MAX
        let b1t = 1.0 - self.cfg.beta1.powi(self.t as i32);
        // lint: allow(as-cast) — powi takes i32; step counts stay far below i32::MAX
        let b2t = 1.0 - self.cfg.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        for (pi, id) in ids.into_iter().enumerate() {
            let g: Vec<f32> = store.grad(id).to_vec();
            let data = store.data_mut(id);
            let m = &mut self.m[pi];
            let v = &mut self.v[pi];
            for i in 0..data.len() {
                let mut gi = g[i];
                if !gi.is_finite() {
                    gi = 0.0; // drop non-finite grads rather than poison state
                }
                m[i] = self.cfg.beta1 * m[i] + (1.0 - self.cfg.beta1) * gi;
                v[i] = self.cfg.beta2 * v[i] + (1.0 - self.cfg.beta2) * gi * gi;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                let mut upd = self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
                if self.cfg.weight_decay > 0.0 {
                    upd += self.cfg.lr * self.cfg.weight_decay * data[i];
                }
                data[i] -= upd;
            }
        }
    }

    /// [`Adam::step`] followed by zeroing the gradients.
    pub fn step_and_zero(&mut self, store: &mut ParamStore) {
        self.step(store);
        store.zero_grads();
    }
}

/// The global gradient norm was NaN or infinite — at least one gradient is
/// poisoned, and scaling would smear the poison across every parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFiniteGradNorm {
    /// The offending norm (NaN, or +inf when a square overflowed).
    pub norm: f32,
}

impl std::fmt::Display for NonFiniteGradNorm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gradient norm is {} — gradients are poisoned (diverged loss or overflow)",
            self.norm
        )
    }
}

impl std::error::Error for NonFiniteGradNorm {}

/// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
///
/// A NaN/inf norm means the gradients already carry non-finite values;
/// clipping cannot repair that, so instead of silently passing poison on to
/// the optimizer this returns [`NonFiniteGradNorm`] and leaves the
/// gradients untouched for the caller's divergence handling (roll back,
/// shrink the learning rate, or abort). An empty store has norm `0.0` and
/// is trivially `Ok`.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> Result<f32, NonFiniteGradNorm> {
    let norm = store.grad_norm();
    if !norm.is_finite() {
        return Err(NonFiniteGradNorm { norm });
    }
    if norm > max_norm && norm > 0.0 {
        store.scale_grads(max_norm / norm);
    }
    Ok(norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_tensor::Tape;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (x - 3)^2 from x = 0
        let mut store = ParamStore::new();
        let x = store.register("x", vec![1], vec![0.0]);
        let mut opt = Adam::new(&store, AdamConfig::with_lr(0.1));
        for _ in 0..300 {
            let mut t = Tape::new();
            let xv = t.param(&store, x);
            let d = t.add_scalar(xv, -3.0);
            let l = t.mul(d, d);
            store.zero_grads();
            t.backward(l, &mut store);
            opt.step_and_zero(&mut store);
        }
        assert!(
            (store.data(x)[0] - 3.0).abs() < 1e-2,
            "x = {}",
            store.data(x)[0]
        );
    }

    #[test]
    fn clip_caps_norm() {
        let mut store = ParamStore::new();
        let x = store.register("x", vec![2], vec![0.0, 0.0]);
        store.grad_mut(x).copy_from_slice(&[3.0, 4.0]);
        let pre = clip_grad_norm(&mut store, 1.0).expect("finite grads");
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_rejects_all_nan_grads() {
        let mut store = ParamStore::new();
        let x = store.register("x", vec![3], vec![0.0; 3]);
        store.grad_mut(x).copy_from_slice(&[f32::NAN; 3]);
        let err = clip_grad_norm(&mut store, 1.0).expect_err("all-NaN grads must be rejected");
        assert!(err.norm.is_nan(), "norm should be NaN: {err}");
        // grads are left untouched for the caller's rollback logic
        assert!(store.grad(x).iter().all(|g| g.is_nan()));
    }

    #[test]
    fn clip_rejects_single_inf_grad() {
        let mut store = ParamStore::new();
        let x = store.register("x", vec![3], vec![0.0; 3]);
        store
            .grad_mut(x)
            .copy_from_slice(&[1.0, f32::INFINITY, 2.0]);
        let err = clip_grad_norm(&mut store, 1.0).expect_err("an inf grad must be rejected");
        assert!(!err.norm.is_finite(), "norm should be non-finite: {err}");
    }

    #[test]
    fn clip_on_empty_store_is_ok_zero() {
        let mut store = ParamStore::new();
        assert_eq!(clip_grad_norm(&mut store, 1.0), Ok(0.0));
    }

    #[test]
    fn adam_state_roundtrips_bitwise() {
        let mut store = ParamStore::new();
        let x = store.register("x", vec![2], vec![1.0, 2.0]);
        let mut opt = Adam::new(&store, AdamConfig::with_lr(0.05));
        store.grad_mut(x).copy_from_slice(&[0.5, -0.5]);
        opt.step(&mut store);
        let state = opt.export_state();
        assert_eq!(state.t, 1);
        assert_eq!(state.lr, 0.05);

        // a fresh optimizer revived from the state continues identically
        let params_after_one = store.data(x).to_vec();
        store.grad_mut(x).copy_from_slice(&[0.25, 0.75]);
        opt.step(&mut store);
        let reference = store.data(x).to_vec();

        store.data_mut(x).copy_from_slice(&params_after_one);
        let mut revived = Adam::new(&store, AdamConfig::with_lr(999.0));
        revived.import_state(&state).expect("layout matches");
        assert_eq!(revived.lr(), 0.05, "import restores the learning rate");
        store.grad_mut(x).copy_from_slice(&[0.25, 0.75]);
        revived.step(&mut store);
        for (a, b) in store.data(x).iter().zip(&reference) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "revived step must be bitwise equal"
            );
        }
    }

    #[test]
    fn adam_state_import_rejects_mismatched_layout_naming_buffer() {
        let mut store = ParamStore::new();
        let _ = store.register("x", vec![2], vec![0.0; 2]);
        let opt = Adam::new(&store, AdamConfig::default());
        let mut state = opt.export_state();
        state.m[0].push(0.0); // wrong width

        let mut other = Adam::new(&store, AdamConfig::default());
        let err = other.import_state(&state).expect_err("layout mismatch");
        assert!(
            err.to_string().contains("first-moment buffer 0"),
            "error must name the offending buffer: {err}"
        );

        // a state captured against a narrower parameter is also rejected
        let narrow_store = {
            let mut s = ParamStore::new();
            let _ = s.register("x", vec![1], vec![0.0]);
            s
        };
        let mut narrow = Adam::new(&narrow_store, AdamConfig::default());
        let full = opt.export_state();
        let err = narrow
            .import_state(&full)
            .expect_err("wider snapshot into narrower optimizer must fail");
        assert!(
            err.to_string().contains("buffer 0"),
            "error must name the offending buffer: {err}"
        );
    }

    #[test]
    fn nonfinite_grads_are_dropped() {
        let mut store = ParamStore::new();
        let x = store.register("x", vec![1], vec![1.0]);
        store.grad_mut(x)[0] = f32::NAN;
        let mut opt = Adam::new(&store, AdamConfig::default());
        opt.step(&mut store);
        assert!(store.data(x)[0].is_finite());
    }
}
