//! Controller-free reference for the differential suites: recomputes an
//! MV set with nothing but [`LogicalPlan::execute`] over an in-memory
//! table map — no plan, catalogs, lanes, deltas or storage writes — so
//! the refresh executor is never its own oracle.

use std::collections::HashMap;
use std::sync::Arc;

use sc_engine::controller::MvDefinition;
use sc_engine::plan::TableSource;
use sc_engine::storage::{format, DiskCatalog};
use sc_engine::{EngineError, Table};

struct MapSource(HashMap<String, Arc<Table>>);

impl TableSource for MapSource {
    fn table(&self, name: &str) -> sc_engine::Result<Arc<Table>> {
        let t = self.0.get(name);
        t.cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.into()))
    }
}

/// The canonical encoding of every MV in `mvs` (in that order), computed
/// from the base tables currently on `disk`.
pub fn oracle_mv_bytes(disk: &DiskCatalog, mvs: &[MvDefinition]) -> Vec<(String, Vec<u8>)> {
    let mut source = MapSource(HashMap::new());
    for name in disk.list().unwrap() {
        if mvs.iter().all(|mv| mv.name != name) {
            let table = disk.read_table(&name).unwrap();
            source.0.insert(name, Arc::new(table));
        }
    }
    // Topological walk: an MV runs once all its inputs are in the map.
    while let Some(mv) = mvs.iter().find(|mv| {
        let inputs = mv.plan.input_tables();
        !source.0.contains_key(&mv.name) && inputs.iter().all(|t| source.0.contains_key(t))
    }) {
        let out = mv.plan.execute(&source).unwrap();
        source.0.insert(mv.name.clone(), Arc::new(out));
    }
    mvs.iter()
        .map(|mv| {
            (
                mv.name.clone(),
                format::encode(&source.0[&mv.name]).to_vec(),
            )
        })
        .collect()
}
