//! Named numbers passed between the benchmark's processes as
//! `name value` lines.

use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Debug, Default)]
pub struct Kv(pub BTreeMap<String, f64>);

impl Kv {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// A value the writer was required to record.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("missing measurement '{name}'"))
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text: String = self.0.iter().map(|(k, v)| format!("{k} {v:e}\n")).collect();
        std::fs::write(path, text)
    }

    pub fn read(path: &Path) -> Result<Kv, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut kv = Kv::default();
        for line in text.lines() {
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad measurement line '{line}'"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad number in '{line}'"))?;
            kv.set(k, v);
        }
        Ok(kv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_digit() {
        let dir = std::env::temp_dir().join(format!("pedbench-kv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.kv");
        let mut kv = Kv::default();
        kv.set("units_per_s", 312.123_456_789_012_3);
        kv.set("server.edit_ms_p50", 5.3e-4);
        kv.write(&path).unwrap();
        let back = Kv::read(&path).unwrap();
        assert_eq!(back.0, kv.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
