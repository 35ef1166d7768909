//! Integration tests of the extension features: measurement noise in the
//! training loop, and the persistence properties of the run journal.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{
    build_task, evaluate_chip, ClassificationHead, Method, TaskSpec, TrainConfig, Trainer,
};
use photon_zo::data::GaussianClusters;
use photon_zo::exec::ExecPool;
use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip, MeasurementNoise};

#[test]
fn zo_training_survives_measurement_noise() {
    let k = 4;
    let mut rng = StdRng::seed_from_u64(1000);
    let arch = Architecture::single_mesh(k, k).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng)
        .with_measurement_noise(MeasurementNoise::realistic(), 7);

    let data = GaussianClusters::new(k, 4, 0.15)
        .generate(160, &mut rng)
        .unwrap();
    let (train, test) = data.split(0.75, &mut rng);
    let head = ClassificationHead::new(k, 4, 10.0).unwrap();
    let trainer = Trainer::new(&chip, &train, &test, head);

    let mut config = TrainConfig::quick(k);
    config.epochs = 10;
    // Under readout noise the default μ = 1e-3/√N is noise-dominated; a
    // larger smoothing step restores signal in the quotients.
    config.mu_override = Some(0.05);
    let theta0 = trainer.warm_start(&config, &mut rng);
    let before = evaluate_chip(&chip, &test, trainer.head(), &theta0, &ExecPool::from_env());
    let mut theta = theta0;
    let out = trainer
        .finetune(Method::ZoGaussian, &config, &mut theta, &mut rng)
        .unwrap();
    // Noisy quotients still descend on average.
    assert!(
        out.final_eval.loss < before.loss,
        "noisy ZO should still improve: {} !< {}",
        out.final_eval.loss,
        before.loss
    );
}

#[test]
fn field_noise_perturbs_loss_but_not_query_accounting() {
    let k = 4;
    let mut rng = StdRng::seed_from_u64(1100);
    let arch = Architecture::single_mesh(k, 2).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng)
        .with_measurement_noise(
            MeasurementNoise {
                shot: 0.05,
                floor: 1e-3,
                field: 0.02,
            },
            3,
        );
    let theta = chip.init_params(&mut rng);
    let x = photon_zo::prelude::CVector::basis(k, 0);
    let a = chip.forward_powers(&x, &theta);
    let b = chip.forward_powers(&x, &theta);
    assert!((&a - &b).max_abs() > 0.0, "readout noise must be fresh");
    assert_eq!(chip.query_count(), 2);
}

#[test]
fn checkpoint_roundtrip_resumes_training_identically() {
    let spec = TaskSpec::quick(4);
    let task = build_task(&spec, 1200).unwrap();
    let mut rng = StdRng::seed_from_u64(1201);
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;

    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let theta = trainer.warm_start(&config, &mut rng);

    // A replica fabricated from the chip's own error assignment behaves
    // identically to the original.
    let replica =
        FabricatedChip::with_errors(task.chip.architecture(), &task.chip.oracle_errors()).unwrap();
    let x = task.train.inputs()[0].clone();
    let y_orig = task.chip.forward(&x, &theta);
    let y_replica = replica.forward(&x, &theta);
    // Errors roundtrip through polar form, so expect fp-rounding agreement
    // rather than bit equality.
    assert!((&y_orig - &y_replica).max_abs() < 1e-12);

    // Fine-tuning from the same theta with the same seed gives the same
    // trajectory on the replica as on the original chip.
    let trainer_replica = Trainer::new(&replica, &task.train, &task.test, task.head);
    let mut ta = theta.clone();
    let mut tb = theta.clone();
    let mut rng_a = StdRng::seed_from_u64(1202);
    let mut rng_b = StdRng::seed_from_u64(1202);
    let out_a = trainer_replica
        .finetune(Method::ZoGaussian, &config, &mut ta, &mut rng_a)
        .unwrap();
    let out_b = trainer
        .finetune(Method::ZoGaussian, &config, &mut tb, &mut rng_b)
        .unwrap();
    assert_eq!(out_a.final_eval.accuracy, out_b.final_eval.accuracy);
    let la: Vec<f64> = out_a.history.iter().map(|h| h.train_loss).collect();
    let lb: Vec<f64> = out_b.history.iter().map(|h| h.train_loss).collect();
    for (a, b) in la.iter().zip(&lb) {
        assert!(
            (a - b).abs() < 1e-9,
            "replica must reproduce the training trajectory: {la:?} vs {lb:?}"
        );
    }
}

/// Fuzz-ish robustness properties of the run journal, the one durable
/// format: entries round-trip exactly (including non-finite values), and
/// any corruption — flipped bytes, unknown versions, duplicated lines,
/// torn tails — is rejected or repaired, never a panic.
mod persistence_properties {
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use photon_zo::core::{
        build_task, crc32, CoreError, DurableOptions, EpochEntry, EpochRecord, JournalHeader,
        Method, RecoveryStats, RunJournal, RunState, TaskSpec, TrainConfig, Trainer,
    };
    use photon_zo::linalg::RVector;
    use photon_zo::opt::Adam;
    use photon_zo::photonics::ErrorVector;
    use photon_zo::trace::LedgerCounts;

    const MAGIC: &str = "photon-zo-journal v2";

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "photon-journal-props-{}-{tag}.journal",
            std::process::id()
        ))
    }

    /// Values plain-text formats get wrong: NaN, infinities, signed zero,
    /// subnormal-scale magnitudes.
    fn arb_value() -> impl Strategy<Value = f64> {
        (0u32..13, -10.0..10.0f64).prop_map(|(kind, finite)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 1.0e-308,
            _ => finite,
        })
    }

    fn arb_vec(n: usize) -> impl Strategy<Value = RVector> {
        proptest::collection::vec(arb_value(), n).prop_map(RVector::from_vec)
    }

    /// An epoch entry whose θ, Adam moments, `loss_ema` and metric errors
    /// draw from [`arb_value`].
    fn arb_entry() -> impl Strategy<Value = EpochEntry> {
        (1usize..6, 0usize..3, 0usize..3)
            .prop_flat_map(|(n, n_bs, n_ps)| {
                (
                    arb_vec(n),
                    arb_vec(n),
                    arb_vec(n),
                    (any::<bool>(), arb_value()),
                    (any::<bool>(), arb_vec(n_bs + 2 * n_ps)),
                    Just((n_bs, n_ps)),
                )
            })
            .prop_map(
                |(theta, m, v, (has_ema, ema), (has_errors, flat), (n_bs, n_ps))| EpochEntry {
                    state: RunState {
                        epoch: 1,
                        iteration: 3,
                        coord_offset: 0,
                        rollbacks_used: 0,
                        loss_ema: has_ema.then_some(ema),
                        eval_queries: 0,
                        ledger: LedgerCounts::new(),
                        recovery: RecoveryStats::default(),
                        theta,
                        adam: Adam::from_parts(0.01, 0.9, 0.999, 1e-8, Some((m, v)), 3).unwrap(),
                        cma: None,
                        rollback_snapshot: None,
                        metric_errors: has_errors
                            .then(|| ErrorVector::from_flat(n_bs, n_ps, flat.as_slice()).unwrap()),
                        recovery_events: Vec::new(),
                    },
                    record: EpochRecord {
                        epoch: 1,
                        train_loss: 0.5,
                        test: None,
                        training_queries: 30,
                        recovery: RecoveryStats::default(),
                    },
                },
            )
    }

    fn header() -> JournalHeader {
        JournalHeader {
            method: Method::ZoGaussian,
            root_seed: 3,
            epochs: 1,
            batch_size: 8,
            q: 2,
        }
    }

    fn bits(v: &RVector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Writes a one-entry journal at `path` and returns its bytes.
    fn write_journal(path: &Path, entry: &EpochEntry) -> Vec<u8> {
        let mut journal = RunJournal::create(path, &header()).unwrap();
        journal.append_epoch(entry).unwrap();
        drop(journal);
        std::fs::read(path).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `append_epoch` → `replay` is exact for θ, the Adam moments,
        /// `loss_ema` and the metric errors, including NaN / ±inf / -0.0 /
        /// 1e-308 (compared as bit patterns: NaN breaks `PartialEq`, not
        /// the format), and re-appending the replayed entry writes the
        /// same bytes.
        #[test]
        fn journal_roundtrips_nonfinite_values(entry in arb_entry()) {
            let path = tmp_path("roundtrip");
            let bytes = write_journal(&path, &entry);
            let replay = RunJournal::replay(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(replay.entries.len(), 1);
            let back = &replay.entries[0];
            let (s, b) = (&entry.state, &back.state);
            prop_assert_eq!(bits(&b.theta), bits(&s.theta));
            let (bm, bv) = b.adam.moments().unwrap();
            let (sm, sv) = s.adam.moments().unwrap();
            prop_assert_eq!(bits(bm), bits(sm));
            prop_assert_eq!(bits(bv), bits(sv));
            prop_assert_eq!(b.loss_ema.map(f64::to_bits), s.loss_ema.map(f64::to_bits));
            let flat_bits = |e: &Option<ErrorVector>| {
                e.as_ref().map(|e| e.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            prop_assert_eq!(flat_bits(&b.metric_errors), flat_bits(&s.metric_errors));

            let again = tmp_path("reappend");
            let rewritten = write_journal(&again, back);
            let _ = std::fs::remove_file(&again);
            prop_assert!(rewritten == bytes, "re-appended entry must write identical bytes");
        }
    }

    /// Bytes of a real two-epoch durable-run journal, produced once and
    /// shared by the corruption properties below.
    fn journal_fixture() -> &'static [u8] {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("photon-journal-fixture-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let task = build_task(&TaskSpec::quick(4), 11).unwrap();
            let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
            let mut config = TrainConfig::quick(4);
            config.epochs = 2;
            config.threads = Some(1);
            let path = dir.join("fixture.journal");
            trainer
                .train_durable(Method::ZoGaussian, &config, &DurableOptions::new(&path, 3))
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
    }

    /// The fixture's records as `(payload start, payload end)` byte ranges:
    /// the header record first, then one per epoch.
    fn payload_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
        let text = std::str::from_utf8(bytes).unwrap();
        let mut at = text.find('\n').unwrap() + 1;
        let mut ranges = Vec::new();
        while at < text.len() {
            let line_end = at + text[at..].find('\n').unwrap();
            let len: usize = text[at..line_end]
                .split(' ')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            ranges.push((line_end + 1, line_end + 1 + len));
            at = line_end + 1 + len;
        }
        ranges
    }

    /// Frames `payloads` under valid lengths and checksums.
    fn seal(payloads: &[String]) -> Vec<u8> {
        let mut out = format!("{MAGIC}\n");
        for p in payloads {
            out.push_str(&format!(
                "record {} {:08x}\n{p}",
                p.len(),
                crc32(p.as_bytes())
            ));
        }
        out.into_bytes()
    }

    fn replay_mutated(bytes: &[u8], tag: &str) -> Result<usize, String> {
        let path = tmp_path(&format!("mutated-{tag}"));
        std::fs::write(&path, bytes).unwrap();
        let result = RunJournal::replay(&path)
            .map(|replay| {
                // Intact records must be an in-order epoch prefix, and the
                // repair must converge: a second replay sees a clean file.
                let epochs: Vec<usize> = replay.entries.iter().map(|e| e.state.epoch).collect();
                assert_eq!(epochs, (1..=epochs.len()).collect::<Vec<_>>());
                let again = RunJournal::replay(&path).unwrap();
                assert_eq!(again.truncated_bytes, 0);
                assert_eq!(again.entries.len(), replay.entries.len());
                replay.entries.len()
            })
            .map_err(|e| e.to_string());
        let _ = std::fs::remove_file(&path);
        result
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A journal killed at ANY byte replays to an in-order prefix of
        /// intact records (or a clean parse error inside the header) and is
        /// repaired idempotently — never a panic.
        #[test]
        fn journal_replay_survives_any_truncation(cut_frac in 0.0..1.0f64) {
            let bytes = journal_fixture();
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            prop_assume!(cut < bytes.len());
            let _ = replay_mutated(&bytes[..cut], &format!("cut{cut}"));
        }

        /// A flipped byte anywhere in the journal never panics replay: the
        /// damage is either truncated away (torn tail) or rejected.
        #[test]
        fn journal_replay_survives_any_flipped_byte(
            idx_frac in 0.0..1.0f64,
            mask in 1u32..256,
        ) {
            let bytes = journal_fixture();
            let idx = ((bytes.len() as f64) * idx_frac) as usize;
            prop_assume!(idx < bytes.len());
            let mut mutated = bytes.to_vec();
            mutated[idx] ^= mask as u8;
            let _ = replay_mutated(&mutated, &format!("flip{idx}-{mask}"));
        }

        /// Any single-byte corruption of a record's payload trips its CRC:
        /// that record and everything after it are dropped as a torn tail
        /// (a damaged header leaves no journal at all).
        #[test]
        fn flipped_body_byte_is_rejected(
            idx_frac in 0.0..1.0f64,
            mask in 1u32..0x60,
        ) {
            let bytes = journal_fixture();
            let ranges = payload_ranges(bytes);
            let body: usize = ranges.iter().map(|(a, b)| b - a).sum();
            let mut k = ((body as f64) * idx_frac) as usize;
            prop_assume!(k < body);
            let (record, idx) = ranges
                .iter()
                .enumerate()
                .find_map(|(r, &(a, b))| {
                    if k < b - a {
                        Some((r, a + k))
                    } else {
                        k -= b - a;
                        None
                    }
                })
                .unwrap();
            let mut mutated = bytes.to_vec();
            mutated[idx] ^= mask as u8;
            prop_assume!(mutated[idx].is_ascii());
            match replay_mutated(&mutated, &format!("body{idx}-{mask}")) {
                Ok(entries) => prop_assert_eq!(entries, record - 1),
                Err(e) => {
                    prop_assert_eq!(record, 0);
                    prop_assert!(e.contains("no intact header"), "got: {}", e);
                }
            }
        }

        /// Duplicated lines are structural corruption: rejected even when
        /// the record is resealed under a valid length and checksum.
        #[test]
        fn duplicated_section_is_rejected(record_frac in 0.0..1.0f64, line_frac in 0.0..1.0f64) {
            let bytes = journal_fixture();
            let mut payloads: Vec<String> = payload_ranges(bytes)
                .into_iter()
                .map(|(a, b)| String::from_utf8(bytes[a..b].to_vec()).unwrap())
                .collect();
            let r = ((payloads.len() as f64) * record_frac) as usize;
            prop_assume!(r < payloads.len());
            let mut lines: Vec<&str> = payloads[r].lines().collect();
            let l = ((lines.len() as f64) * line_frac) as usize;
            prop_assume!(l < lines.len());
            lines.insert(l, lines[l]);
            let doubled = lines.iter().map(|line| format!("{line}\n")).collect::<String>();
            payloads[r] = doubled;
            let path = tmp_path(&format!("dup{r}-{l}"));
            std::fs::write(&path, seal(&payloads)).unwrap();
            let result = RunJournal::replay(&path);
            let _ = std::fs::remove_file(&path);
            prop_assert!(result.is_err(), "record {} line {} duplicated yet accepted", r, l);
        }
    }

    /// A flipped hex digit of the last record's checksum drops that record
    /// as a torn tail; the earlier epochs survive.
    #[test]
    fn flipped_checksum_digit_is_rejected() {
        let bytes = journal_fixture();
        let (last_start, _) = *payload_ranges(bytes).last().unwrap();
        let digit = last_start - 2; // last hex digit of the final frame line
        let mut mutated = bytes.to_vec();
        mutated[digit] = if mutated[digit] == b'0' { b'1' } else { b'0' };
        assert_eq!(replay_mutated(&mutated, "crc"), Ok(1));
    }

    /// Resumes a one-epoch durable run of `method` whose journal record was
    /// rewritten by `edit` and resealed under a valid length and checksum.
    fn resume_resealed(method: Method, name: &str, edit: impl Fn(&str) -> String) -> CoreError {
        let dir = std::env::temp_dir().join(format!(
            "photon-journal-resealed-{}-{name}",
            std::process::id()
        ));
        let task = build_task(&TaskSpec::quick(4), 11).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
        let mut config = TrainConfig::quick(4);
        config.epochs = 1;
        config.threads = Some(1);
        let opts = DurableOptions::new(dir.join("run.journal"), 3);
        trainer.train_durable(method, &config, &opts).unwrap();
        let bytes = std::fs::read(&opts.journal_path).unwrap();
        let mut payloads: Vec<String> = payload_ranges(&bytes)
            .into_iter()
            .map(|(a, b)| String::from_utf8(bytes[a..b].to_vec()).unwrap())
            .collect();
        let last = payloads.last_mut().unwrap();
        let edited = edit(last);
        assert_ne!(&edited, last, "the edit must change the record");
        *last = edited;
        std::fs::write(&opts.journal_path, seal(&payloads)).unwrap();
        let err = trainer.resume(&config, &opts).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        err
    }

    /// An edit of a record that sets token `index` of its `line_tag` line to
    /// `value`.
    fn replace_token(
        line_tag: &'static str,
        index: usize,
        value: &'static str,
    ) -> impl Fn(&str) -> String {
        move |payload| {
            payload
                .lines()
                .map(|line| match line.strip_prefix(line_tag) {
                    Some(rest) if rest.starts_with(' ') => {
                        let mut toks: Vec<&str> = rest[1..].split(' ').collect();
                        toks[index] = value;
                        format!("{line_tag} {}\n", toks.join(" "))
                    }
                    _ => format!("{line}\n"),
                })
                .collect()
        }
    }

    /// A CRC-intact record whose optimizer values are out of range is a
    /// journal parse error on resume, never a panic: a negative learning
    /// rate, β₁ ≥ 1, a CMA-ES population below 2 and one of 2^62 (whose
    /// recombination weights overflow the allocator) each used to panic in
    /// the optimizer's constructor.
    #[test]
    fn resealed_out_of_range_optimizer_values_are_parse_errors() {
        let cases = [
            (
                Method::ZoGaussian,
                "lr",
                replace_token("adam", 0, "-0.02"),
                "learning rate",
            ),
            (
                Method::ZoGaussian,
                "beta1",
                replace_token("adam", 1, "1.5"),
                "beta1",
            ),
            (
                Method::Cma { sigma0: 0.1 },
                "lambda",
                replace_token("cma", 0, "1"),
                "population",
            ),
            (
                Method::Cma { sigma0: 0.1 },
                "lambda-huge",
                replace_token("cma", 0, "4611686018427387904"),
                "population",
            ),
        ];
        for (method, name, edit, expected) in cases {
            match resume_resealed(method, name, edit) {
                CoreError::Journal(message) => {
                    assert!(message.contains(expected), "{name}: {message}")
                }
                other => panic!("{name}: expected a journal error, got {other:?}"),
            }
        }
    }

    /// Journals of another format version — the v1 format that still
    /// carried wall-clock time, or a future one — are refused up front.
    #[test]
    fn unknown_version_is_rejected() {
        let bytes = journal_fixture();
        let body = &bytes[MAGIC.len()..];
        for magic in ["photon-zo-journal v1", "photon-zo-journal v9"] {
            let mut other = magic.as_bytes().to_vec();
            other.extend_from_slice(body);
            let err = replay_mutated(&other, magic.rsplit(' ').next().unwrap()).unwrap_err();
            assert!(err.contains("unsupported journal version"), "got: {err}");
        }
    }

    #[test]
    fn journal_with_bad_magic_is_rejected() {
        let path = tmp_path("bad-magic");
        std::fs::write(&path, b"not a journal at all\n").unwrap();
        assert!(RunJournal::replay(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
