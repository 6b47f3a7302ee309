//! Golden map roots of `Dataset::import` and `Dataset::update`, both
//! layouts: 5,000 generated records under two seeds, then 50 modified
//! records. How the import encodes its values may change; the trees it
//! builds may not.

use fb_collab::{Dataset, Layout};
use fb_workload::DatasetGen;
use forkbase_core::ForkBase;

/// Map roots after the import and after the update.
fn roots(layout: Layout, seed: u64) -> [String; 2] {
    let db = ForkBase::in_memory();
    let records = DatasetGen::new(seed).records(5_000);
    let ds = Dataset::import(&db, "sales", layout, &records).expect("import");
    let root = |db: &ForkBase| {
        let map = db.get_value(ds.key.clone(), None).expect("head");
        map.as_map().expect("map").root().to_hex()
    };
    let imported = root(&db);
    let mods = DatasetGen::new(seed + 100).modifications(5_000, 50);
    ds.update(&db, &mods).expect("update");
    [imported, root(&db)]
}

#[test]
fn row_layout_roots() {
    assert_eq!(
        roots(Layout::Row, 1),
        [
            "7b3402c2449155c2641708f7b1850a6c43d33e6d5e11cda5499cc95c03fb9539",
            "f117202c5e5ed98eccbc17bb88236b18bdac7e65fae4ecef7fc33e52368bbb5a",
        ]
    );
    assert_eq!(
        roots(Layout::Row, 2),
        [
            "814bf0270d690ad98ea6e24bc872379d07c56f207ba6746136d7550ef2e5f914",
            "83c22344695d586659f2cb643115a1bd011e6fe47850049fa5e1cda735d01e96",
        ]
    );
}

#[test]
fn column_layout_roots() {
    assert_eq!(
        roots(Layout::Column, 1),
        [
            "ae47ac25617c9ee6348ffd7836cf1d41d6ca80db9a41708bc5f0434f2b63374d",
            "eab1ed921e0dc50a03414b1e7aea975f5488cfd5f6730ea53650a97da3a36ca8",
        ]
    );
    assert_eq!(
        roots(Layout::Column, 2),
        [
            "0031639e35c02fbe014fe6a50acdfedc780c458c1c1b6473203f305b24f1cc96",
            "b18880e97de9e918ffedfb6aac955183b7e11445514ceb1302a92e5f9d43770b",
        ]
    );
}
