//! The paper's §V-C persistence-domain story, end to end:
//!
//! 1. data the application persisted (`clflush` + `sfence`, the libpmem
//!    contract) survives power failure via the FPGA's battery-backed dump
//!    of dirty DRAM-cache slots to Z-NAND;
//! 2. stores still sitting in the volatile CPU cache are lost when ADR is
//!    absent — the "weak persistence domain";
//! 3. a power failure injected *mid-operation* (the fault-injection
//!    subsystem's `PowerFail` class) cuts the in-flight write at its
//!    first crash boundary with a typed error, and one power cycle (dump,
//!    then reboot from what the Z-NAND holds) brings the device back with
//!    everything previously persisted intact.
//!
//! ```text
//! cargo run --release --example power_failure
//! ```

use nvdimmc::core::{BlockDevice, CoreError, FaultKind, NvdimmCConfig, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NvdimmCConfig::small_for_tests();
    nvdimmc::check::assert_config_clean(&cfg);
    let mut sys = System::new(cfg)?;
    // Record the CPU-cache persistence journal so nvdimmc-check can audit
    // the flush/fence ordering behind the durability claim below.
    sys.set_persist_journal(true);

    // A "database commit record" the application persists properly...
    sys.write_at(0, b"committed transaction #42")?;
    sys.persist(0, 25)?;
    // ...and a record it never flushed.
    sys.write_at(8192, b"unflushed scribble")?;

    // Audit the journal: the committed record must be flush+fence ordered;
    // the unclaimed scribble is intentionally lost and must not be flagged.
    let persist_diags = nvdimmc::check::check_persistence(&sys.take_persist_journal());
    assert!(persist_diags.is_empty(), "{persist_diags:?}");
    println!("persistence-ordering check: clean (libpmem contract held)");

    println!("power fails (no ADR: the weak persistence domain of Sec. V-C)...");
    let report = sys.power_cycle(false)?;
    println!(
        "  FPGA dumped {} dirty slots ({} KB) to Z-NAND on battery power",
        report.slots_flushed,
        report.bytes_flushed >> 10
    );
    println!("rebooted (volatile state gone, Z-NAND intact)");

    let mut committed = [0u8; 25];
    sys.read_at(0, &mut committed)?;
    let mut scribble = [0u8; 18];
    sys.read_at(8192, &mut scribble)?;

    println!(
        "  persisted record: {:?} -> {}",
        std::str::from_utf8(&committed)?,
        if &committed == b"committed transaction #42" {
            "SURVIVED"
        } else {
            "LOST"
        }
    );
    println!(
        "  unflushed record: {} (expected on the weak domain)",
        if &scribble == b"unflushed scribble" {
            "survived (was evicted to DRAM in time)"
        } else {
            "LOST"
        }
    );
    assert_eq!(&committed, b"committed transaction #42");

    // --- Act 3: power fails in the middle of a transfer -----------------
    // Arm a mid-operation power failure via the fault injector: the cut
    // lands at the next crash boundary, the first page of the next
    // operation, with a typed `PowerInterrupted` before its data lands
    // anywhere — no torn page, no partial NVMC program.
    println!("\ninjecting a mid-operation power failure...");
    assert!(sys.inject_fault(FaultKind::PowerFail));
    match sys.write_at(4096, b"never lands") {
        Err(CoreError::PowerInterrupted) => {
            println!("  in-flight write interrupted (typed, not torn)");
        }
        other => panic!("expected PowerInterrupted, got {other:?}"),
    }

    // This host has ADR: the CPU write-pending queues drain, the FPGA
    // dumps every dirty slot on battery power, and the host reboots.
    let report = sys.power_cycle(true)?;
    println!(
        "  ADR flush + FPGA dump: {} dirty slots ({} KB) to Z-NAND",
        report.slots_flushed,
        report.bytes_flushed >> 10
    );

    // The committed record still survives; the interrupted write shows
    // no trace — the page reads back as if the op never started.
    sys.read_at(0, &mut committed)?;
    assert_eq!(&committed, b"committed transaction #42");
    let mut hole = [0u8; 11];
    sys.read_at(4096, &mut hole)?;
    assert_ne!(&hole, b"never lands", "interrupted write partially landed");
    println!("  persisted record survived; interrupted write left no trace");

    let s = sys.recovery_stats();
    assert_eq!(s.power_fails_fired, 1);
    assert_eq!(s.power_fails_recovered, 1);
    println!(
        "recovery ledger: {} power failure fired, {} recovered",
        s.power_fails_fired, s.power_fails_recovered
    );
    Ok(())
}
