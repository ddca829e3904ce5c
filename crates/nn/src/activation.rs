//! Activation functions as a small enum applied through the tape.

use harp_tensor::{Tape, Var};

/// Nonlinearity choices for [`crate::Mlp`] and friends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// Identity (no nonlinearity).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply this activation to `x` on `tape`.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu(a) => tape.leaky_relu(x, a),
            Activation::Tanh => tape.tanh(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_matches_tape_ops() {
        let mut t = Tape::new();
        let x = t.constant(vec![3], vec![-1.0, 0.0, 2.0]);
        let y = Activation::Relu.apply(&mut t, x);
        assert_eq!(t.value(y), &[0.0, 0.0, 2.0]);
        let y = Activation::LeakyRelu(0.5).apply(&mut t, x);
        assert_eq!(t.value(y), &[-0.5, 0.0, 2.0]);
        let y = Activation::Identity.apply(&mut t, x);
        assert_eq!(y, x);
    }
}
