//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner(&mut self) {}
    pub fn advance(&mut self, f: usize) {
        let len = self.pending[f];
        self.consume(len);
    }
    pub fn start_transmission(&mut self) {}
    fn consume(&mut self, len: u32) {}
}
