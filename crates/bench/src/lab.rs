//! The state one `repro` process shares across experiments. Nothing is
//! written to disk: datasets, optima and trained models live as long as
//! the run, so no later run can read a stale one.

use std::rc::Rc;

use crate::data::{Datasets, Oracles};
use crate::drill::{self, DrillResult};
use crate::zoo::Zoo;

/// Datasets, optimal MLUs and trained models, each built on first use.
pub struct Lab {
    /// Reduced sizes (`--quick`, the default) or paper scale (`--full`).
    pub quick: bool,
    /// AnonNet and the GEANT / Abilene / KDL setups.
    pub data: Datasets,
    /// Optimal MLUs by snapshot key.
    pub oracles: Oracles,
    /// Trained models by name.
    pub zoo: Zoo,
    abilene_drill: Option<Rc<DrillResult>>,
}

impl Lab {
    /// A lab with nothing built yet.
    pub fn new(quick: bool) -> Lab {
        Lab {
            quick,
            data: Datasets::new(quick),
            oracles: Oracles::default(),
            zoo: Zoo::default(),
            abilene_drill: None,
        }
    }

    /// The Abilene failure drill, run once for Figs 10 and 17.
    pub fn abilene_drill(&mut self) -> Rc<DrillResult> {
        if let Some(r) = &self.abilene_drill {
            return Rc::clone(r);
        }
        let r = Rc::new(drill::run(
            self.quick,
            self.data.abilene(),
            &mut self.oracles,
            &mut self.zoo,
        ));
        self.abilene_drill = Some(Rc::clone(&r));
        r
    }
}
