//! Known-bad fixture for rule `lock-discipline` (lock ordering): the
//! declared order is `zones → failures → units`; acquiring against it
//! while a guard is held must fire.

pub struct Store {
    zones: Lock,
    failures: Lock,
    units: Lock,
}

impl Store {
    pub fn inverted_pair(&self) {
        let u = self.units.write();
        let f = self.failures.read(); // fires: failures ranks before units
        observe(&u, &f);
    }

    pub fn inverted_temporary(&self) {
        let u = self.units.write();
        self.failures.write(); // fires: temporary acquisition still inverts
        u.touch();
    }

    pub fn ordered_pair(&self) {
        let f = self.failures.read();
        let u = self.units.write(); // quiet: follows the declared order
        observe(&f, &u);
    }

    pub fn full_chain(&self) {
        let z = self.zones.read();
        let f = self.failures.read();
        let u = self.units.write(); // quiet: zones → failures → units
        observe_all(&z, &f, &u);
    }
}
