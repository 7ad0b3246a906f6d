// Fixture: the cases a token scan cannot see, because the hash type is
// not spelled at the site. Clippy resolves types, so each one trips.
use std::collections::HashMap as Map;
use std::collections::HashMap;

pub fn aliased_import(m: &Map<u32, f64>) -> f64 {
    m.values().sum() //~
}

macro_rules! total {
    ($m:expr) => {
        $m.iter().map(|(k, v)| f64::from(*k) * v).sum::<f64>() //~
    };
}

pub fn inside_a_macro_body(m: &HashMap<u32, f64>) -> f64 {
    total!(m)
}

pub struct Table {
    rows: HashMap<u32, f64>,
}

impl Table {
    fn rows(&self) -> &HashMap<u32, f64> {
        &self.rows
    }

    pub fn behind_a_helper(&self) -> f64 {
        let mut total = 0.0;
        for (k, v) in self.rows() { //~
            total += f64::from(*k) * v;
        }
        total
    }
}
