open Nd

let q_star program ~m =
  let d = Program.decompose program ~m in
  Array.fold_left
    (fun acc t -> acc + Program.size program t)
    d.Program.n_glue d.Program.tasks
