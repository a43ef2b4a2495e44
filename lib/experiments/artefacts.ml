let all =
  [
    ("table1", fun ppf _ -> Table1.run ppf);
    ("table2", Table2.run);
    ("ex1", Worked_example.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("ablation-hints", Ablation_hints.run);
    ("ablation-chains", Ablation_chains.run);
    ("ablation-interleave", Ablation_machine.run Interleaving);
    ("ablation-clusters", Ablation_machine.run Clusters);
    ("ablation-traffic", Ablation_traffic.run);
    ("ablation-unroll", Ablation_unroll.run);
    ("csv", Csv_export.run);
  ]
