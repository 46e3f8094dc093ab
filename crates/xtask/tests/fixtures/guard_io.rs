//! Known-bad fixture for rule `lock-discipline` (guard liveness):
//! `let`-bound guards held across backend I/O or a pool submission
//! must fire; dropped, scoped and temporary guards must stay quiet.

pub struct Store {
    units: Lock,
    backend: Backend,
    inner: Backend,
    pool: ScanExecutor,
}

impl Store {
    pub fn bad_hold_across_get(&self, key: u32) -> usize {
        let guard = self.units.read();
        let bytes = self.backend.get(key); // fires: guard still live
        guard.len() + bytes.len()
    }

    pub fn bad_hold_across_fs(&self) -> usize {
        let g = self.units.lock();
        let raw = std::fs::read("unit.bin"); // fires: guard still live
        g.len() + raw.len()
    }

    pub fn bad_hold_across_scan(&self) {
        let g = self.units.write();
        run_scan(self.backend.list()); // fires twice: run_scan and .list()
        g.touch();
    }

    pub fn bad_hold_across_submit(&self, tasks: Vec<Task>) -> usize {
        let g = self.units.read();
        let done = self.pool.execute_all(tasks); // fires: a task may need `units`
        g.len() + done.len()
    }

    pub fn ok_drop_first(&self, key: u32) -> usize {
        let g = self.units.read();
        let n = g.len();
        drop(g);
        self.backend.get(key).len() + n // quiet: guard dropped
    }

    pub fn ok_temporary_guard(&self, key: u32) -> usize {
        self.units.write().insert(key); // temporary: dies with the statement
        self.inner.get(key).len() // quiet
    }

    pub fn ok_scoped_guard(&self) {
        {
            let g = self.units.read();
            g.touch();
        }
        run_scan(self.backend.list()); // quiet: guard scope closed
    }
}
