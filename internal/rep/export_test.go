package rep

// TemplateShapes is the bound on the skeletons one TemplateStore
// interns.
const TemplateShapes = templateShapes
